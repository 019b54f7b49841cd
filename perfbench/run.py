"""diffrad benchmark: closed-loop workloads over the exact radical calculus.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload radical|certify|counting \\
        --seed N --seconds S --trace 0|1

One client, one process, one thread: each instance starts after the
previous one has finished and been checked. Inputs come from the seed
only, and are generated outside the timed region; see workloads.py.

``--trace 0`` measures set-up (median of fresh interpreters), then times
the closed loop for S seconds, and at least the workload's gate prefix,
and reports the end-to-end metrics. ``--trace 1`` runs the gate prefix
with the layer tracer (tracer.py), each instance again untraced right
after, and reports per-layer counts and self times plus the tracing
overhead. Both modes hash the inputs and exact outputs of the gate prefix
and compare them with ``digests.json`` when the seed is recorded there.

The last line of standard output is the result object; the line before it
holds the run metadata (versions, sample counts, failed_ratio, digests).
An instance fails when it raises or its check does; the result is correct
only when none fails and the digests match.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

SETUP_STARTS = 15
WARMUP = 3
OVERHEAD_SAMPLE = 5

# Instances hashed into the digests and replayed by the traced run: one
# stratification period of each workload's input stream.
GATE = {"radical": 96, "certify": 80, "counting": 54}

SETUP_CHILD = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import diffrad.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = diffrad.cli.main(["radical", "z", "--json"])
print(time.perf_counter() - t0 if code == 0 else -1.0)
"""


def _import_program():
    """Import diffrad from this checkout's src/, and nothing else."""
    if not (SRC / "diffrad" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no diffrad package under {SRC}")
    sys.path.insert(0, str(SRC))
    import diffrad

    if Path(diffrad.__file__).resolve().parent != SRC / "diffrad":
        raise SystemExit(f"perfbench: imported diffrad from {diffrad.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))


def measure_setup(starts: int = SETUP_STARTS) -> list[float]:
    """Cold start of a CLI call in fresh interpreters, one at a time.

    Each child imports diffrad and answers a trivial request, which builds
    default_tower() and the CLI parser. The hash seed is fixed so every
    start does the same work, and byte code is cached under src/ as an
    installed package's would be; the first start, which writes it, is
    discarded.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    times = []
    for k in range(starts + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        value = float(proc.stdout.strip() or -1.0) if proc.returncode == 0 else -1.0
        if value <= 0:
            raise SystemExit(f"perfbench: set-up child failed: {proc.stderr.strip()}")
        if k:
            times.append(value)
    return times


def attempt(wl, inst, tracer=None):
    """Run one instance and check it: (ok, exact outputs, seconds).

    Only ``wl.run`` is timed and traced. An instance that raises, or whose
    check raises, counts as failed.
    """
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        out = wl.run(inst)
    except Exception as exc:
        return False, ["raised", type(exc).__name__], perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.active = False
    seconds = perf_counter() - t0
    try:
        return True, wl.check(inst, out), seconds
    except Exception as exc:
        return False, ["failed", type(exc).__name__, str(exc)], seconds


class Digest:
    def __init__(self):
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()

    def add(self, wl, inst, exact) -> None:
        self.inputs.update(json.dumps(wl.input_key(inst)).encode() + b"\n")
        self.outputs.update(json.dumps(exact, default=str).encode() + b"\n")

    def hexdigests(self) -> dict:
        return {"inputs": self.inputs.hexdigest(), "outputs": self.outputs.hexdigest()}


def warm_up(wl, seed: int) -> None:
    stream = wl.instances(seed + 1_000_003)
    for _ in range(WARMUP):
        attempt(wl, next(stream))


def closed_loop(wl, stream, seconds: float, gate: int) -> dict:
    """Time instances back to back for `seconds`, and at least `gate` of them.

    The first `gate` instances go into the digests.
    """
    digest = Digest()
    latencies, failures = [], []
    deadline = perf_counter() + seconds
    while len(latencies) < gate or perf_counter() < deadline:
        inst = next(stream)
        ok, exact, dt = attempt(wl, inst)
        latencies.append(dt)
        if not ok:
            failures.append([len(latencies) - 1, *exact])
        if len(latencies) <= gate:
            digest.add(wl, inst, exact)
    return {"latencies": latencies, "failures": failures, "digests": digest.hexdigests()}


def traced_pass(wl, insts: list):
    """Each instance traced, then again untraced.

    Returns the tracer, the digests and failures of the traced runs, and
    the tracing overhead (traced seconds / untraced seconds - 1). Pairing
    the two runs of an instance keeps drift in machine speed out of the
    overhead; tracing first keeps the counts free of state that a run on
    the same input left behind.
    """
    from tracer import Tracer

    tracer = Tracer()
    digest = Digest()
    traced_s = untraced_s = 0.0
    failures = []
    with tracer:
        for k, inst in enumerate(insts):
            ok, exact, dt = attempt(wl, inst, tracer)
            traced_s += dt
            if not ok:
                failures.append([k, *exact])
            digest.add(wl, inst, exact)
            untraced_s += attempt(wl, inst)[2]
    return tracer, digest.hexdigests(), failures, traced_s / untraced_s - 1.0


def prefix(wl, seed: int, count: int) -> list:
    return list(itertools.islice(wl.instances(seed), count))


def check_digests(workload: str, seed: int, digests: dict) -> tuple[bool, str]:
    """Compare with the digests recorded for this seed, if there are any."""
    recorded = None
    if DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return True, "seed not recorded"
    if recorded["inputs"] != digests["inputs"]:
        return False, "input digest differs: the benchmark's inputs changed"
    if recorded["outputs"] != digests["outputs"]:
        return False, "output digest differs: an exact result changed"
    return True, "match"


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    gate = GATE[args.workload]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loop": "closed, 1 client, 1 process, 1 thread",
        "input_sizes": wl.sizes,
        "gate_instances": gate,
    }

    if args.trace:
        warm_up(wl, args.seed)
        tracer, digests, failures, overhead = traced_pass(wl, prefix(wl, args.seed, gate))
        attempted = gate
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        meta["layer_metrics"] = (
            "counts and busy (self) time only: one thread, no queues, so no layer waits"
        )
    else:
        setup = measure_setup()
        warm_up(wl, args.seed)
        loop = closed_loop(wl, wl.instances(args.seed), args.seconds, gate)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lat_ms = sorted(1000 * x for x in loop["latencies"])
        attempted, failures, digests = len(lat_ms), loop["failures"], loop["digests"]
        metrics = {
            "instances_per_s": ((attempted - len(failures)) / (sum(lat_ms) / 1000), "1/s"),
            "latency_ms_p50": (statistics.median(lat_ms), "ms"),
            "latency_ms_p90": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        meta["latency_samples"] = attempted
        meta["setup_samples_s"] = setup
        *_, overhead = traced_pass(wl, prefix(wl, args.seed, OVERHEAD_SAMPLE))

    failed = len(failures)
    meta["attempted"] = attempted
    meta["failed"] = failed
    meta["failed_ratio"] = failed / attempted
    meta["first_failures"] = failures[:3]
    meta["tracing_overhead_ratio"] = overhead
    meta["digests"] = digests
    digests_ok, meta["digest_check"] = check_digests(args.workload, args.seed, digests)
    if not digests_ok:
        print(f"perfbench: {meta['digest_check']}", file=sys.stderr)

    print(json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0 and digests_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
