"""Self-tests of the benchmark; run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import diffrad  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_KEYS = ("poly.remainder_steps", "poly.coeff_bits_max")


def _bench(*args: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith("_calls") or k in COUNT_KEYS}


def _traced(name: str, count: int, seed: int = 0) -> Tracer:
    wl = WORKLOADS[name]
    tracer, _, failures, _ = run.traced_pass(wl, run.prefix(wl, seed, count))
    assert failures == []
    return tracer


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    meta, result = _bench("--workload", "certify", "--seed", "0", "--seconds", "0", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}
    for key in ("python", "nproc", "git_sha", "seed", "attempted", "input_sizes",
                "tracing_overhead_ratio", "failed_ratio"):
        assert key in meta
    assert meta["digest_check"] == "match"


def test_counts_repeat_across_processes():
    runs = [_bench("--workload", "radical", "--seed", "5", "--seconds", "0", "--trace", "1")[1]
            for _ in range(2)]
    first, second = (_counts({k: m["value"] for k, m in r["metrics"].items()}) for r in runs)
    assert first == second


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_in_one_process(name):
    first = _counts(_traced(name, 10, seed=3).metrics())
    second = _counts(_traced(name, 10, seed=3).metrics())
    assert first == second
    assert any(value for value, _ in first.values())


def test_tracer_restores_the_program():
    names = {"gcd": diffrad.poly.gcd, "mason.gcd": diffrad.mason.gcd,
             "mul": diffrad.FieldElement.__mul__, "main": diffrad.cli.main}
    _traced("certify", 2)
    assert names == {"gcd": diffrad.poly.gcd, "mason.gcd": diffrad.mason.gcd,
                     "mul": diffrad.FieldElement.__mul__, "main": diffrad.cli.main}


def _failing_instance(name: str):
    tower = diffrad.default_tower()
    first = next(WORKLOADS[name].instances(0))
    if name == "radical":  # a zero shift is rejected
        f, _, m = first
        return f, tower.zero, m
    if name == "certify":  # z divides a and b, so the coprimality hypothesis fails
        return "mason", ["mason", "z^2 + z", "z^2 + 2*z", "2*z^2 + 3*z", "--kappa", "1"]
    D, kappa, q, n, radii = first  # a zero radius is rejected
    return D, kappa, q, n, [Fraction(0), *radii]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_failure_counter(name):
    wl = WORKLOADS[name]
    clean = run.closed_loop(wl, wl.instances(0), 0, 4)
    assert clean["failures"] == [] and len(clean["latencies"]) == 4
    stream = itertools.chain([_failing_instance(name)], wl.instances(0))
    loop = run.closed_loop(wl, stream, 0, 4)
    assert len(loop["failures"]) / len(loop["latencies"]) > 0
    assert loop["failures"][0][0] == 0
    assert loop["digests"]["outputs"] != clean["digests"]["outputs"]


def test_layer_split():
    """Each workload loads the layers it was chosen for, and not the others."""
    rad = _traced("radical", 24)
    cer = _traced("certify", 20)
    cnt = _traced("counting", 18)
    r, c, n = (
        {k: v for k, (v, _) in t.metrics().items()} for t in (rad, cer, cnt)
    )

    # radical: the gcd and shift stages hold most of the traced time; the
    # self time of a gcd is small because its arithmetic is field.* time
    assert r["poly.gcd_total_s"] + r["poly.taylor_shift_total_s"] > 0.5 * sum(rad.self_s)
    assert r["parser.parse_calls"] == r["field.compare_calls"] == 0
    assert all(v == 0 for k, v in r.items() if k.startswith("divisor."))

    # counting: certified sign decisions dominate; no gcd at all
    assert n["field.compare_self_s"] + n["field.embed_self_s"] > 0.5 * sum(cnt.self_s)
    assert n["poly.gcd_calls"] == 0

    # only the CLI workload parses text and builds Casoratians
    assert c["parser.parse_calls"] > 0 and c["mason.casoratian_calls"] > 0
    for other in (r, n):
        assert other["parser.parse_calls"] == other["mason.casoratian_calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radical", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
