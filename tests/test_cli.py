"""End-to-end command line behavior: output shapes and the exit contract."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffrad import cli, default_tower, errors, field, modular
from diffrad.cli import main
from diffrad.examples import EXPECTED

REQUIRED_KEYS = {"command", "session", "hypotheses", "lhs", "rhs", "holds", "artifacts"}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--json"])
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 1
    return code, json.loads(lines[0])


def test_radical_text_output(capsys):
    code, out = run(capsys, ["radical", "z^2*(z-1)*(z-2)^3"])
    assert code == 0
    assert "radical: z^4 - 6*z^3 + 12*z^2 - 8*z" in out
    assert "n_tilde: 4" in out


def test_radical_oracle_and_classical(capsys):
    code, out = run(
        capsys,
        ["radical", "--factored", "1;(0,2),(1,1),(2,3)", "--oracle", "--classical"],
    )
    assert code == 0
    assert "oracle agrees: yes" in out
    assert "classical radical: z^3 - 3*z^2 + 2*z" in out
    assert "classical count: 3" in out


def test_radical_json_schema(capsys):
    code, doc = run_json(capsys, ["radical", "z^2*(z-1)*(z-2)^3", "--seed", "7"])
    assert code == 0
    assert REQUIRED_KEYS <= set(doc)
    assert doc["command"] == "radical"
    assert doc["session"]["seed"] == 7
    assert doc["session"]["kappa"] == "1"
    assert doc["artifacts"]["n_tilde"] == 4
    assert doc["holds"] is None


def test_radical_accepts_leading_dash_expression(capsys):
    code, out = run(capsys, ["radical", "-z"])
    assert code == 0
    assert "radical: z" in out


def test_radical_usage_errors(capsys):
    assert main(["radical"]) == 3
    assert main(["radical", "z", "--factored", "1;(0,1)"]) == 3
    assert main(["radical", "z", "--m", "1"]) == 3
    assert main(["radical", "z", "--oracle"]) == 3
    assert main(["radical", "2z"]) == 3
    assert main(["radical", "z", "--kappa", "0"]) == 3
    err = capsys.readouterr().err
    assert "diffrad:" in err


# Checks on flag values and argument combinations: no source text, so no position.
FLAG_ERRORS = [
    (["radical", "z", "--m", "1"], "--m must be at least 2"),
    (["radical", "z", "--kappa", "0"], "--kappa must be nonzero"),
    (["radical"], "give exactly one of POLY or --factored"),
    (["radical", "z", "--oracle"], "--oracle needs --factored input"),
    (["mason", "z", "z + 1"], "mason needs at least three polynomials"),
    (["fermat", "z", "z + 1", "z + 2", "--n", "0"], "exponent n must be a positive integer"),
    (["divisor", "--divisor", "(0,1)", "--radii", "1,x"], "bad radius 'x'"),
    (["divisor", "--divisor", "(0,1)", "--radii", ","], "--radii needs at least one value"),
    (["divisor", "--divisor", "(1,1)", "--q", "0"], "--q must be at least 1"),
    (["divisor", "--divisor", "(1,1)", "--truncation", "--n", "0"], "--n must be at least 1"),
    (["divisor", "--divisor", "(1,1)", "--q", "201"], "--q is capped at 200"),
    (["divisor", "--divisor", "(1,1)", "--truncation", "--n", "201"], "--n is capped at 200"),
    (["fermat", "z", "1", "z+1", "--n", "201"], "--n times the largest base degree is capped"),
    (["fermat", "z^2", "1", "z^2+1", "--n", "101"], "--n times the largest base degree is capped"),
    (["fermat", "1", "1", "2", "--n", "201"], "--n times the largest base degree is capped"),
    (["divisor"], "give exactly one of --divisor or --file"),
    (["divisor", "--file", "no-such-divisor-file.txt"], "cannot read no-such-divisor-file.txt"),
    (["divisor", "--ord-inequality"], "--ord-inequality needs factored polynomials"),
    (["divisor", "--divisor", "(0,1)", "z"], "positional inputs are only used"),
    (["examples", "no-such-fixture"], "unknown fixture names"),
]


@pytest.mark.parametrize("argv, message", FLAG_ERRORS, ids=[m for _, m in FLAG_ERRORS])
def test_flag_value_errors_show_no_position(capsys, argv, message):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("diffrad: ") and message in err
    assert err.count("\n") == 1 and "(at position" not in err


def test_argparse_errors_exit_three():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["fermat", "z", "z", "z", "--form", "cubic"])
    assert exc.value.code == 3
    # Counting runs at one fixed precision; the flag that set it is gone.
    with pytest.raises(SystemExit) as exc:
        main(["divisor", "--divisor", "(1,1)", "--precision-bits", "40"])
    assert exc.value.code == 3


def test_mason_triple_sharp(capsys):
    code, out = run(capsys, ["mason", "z^2 + z", "-(z^2 + 5*z + 6)", "-4*z - 6"])
    assert code == 0
    assert "bound holds (sharp)" in out
    assert "lhs = 2" in out and "rhs = 2" in out


def test_mason_hypotheses_unmet(capsys):
    code, out = run(capsys, ["mason", "z", "z", "2*z"])
    assert code == 2
    assert "hypotheses unmet" in out


def test_mason_multi_paths(capsys):
    code, doc = run_json(capsys, ["mason", "z^2", "z + 1", "z^2 + z + 1", "--multi"])
    assert code == 0
    assert doc["statement"] == "MasonM"
    assert doc["artifacts"]["m"] == 2

    code, doc = run_json(
        capsys, ["mason", "z^2", "z + 1", "z^2 - 2*z + 1", "2*z^2 - z + 2"]
    )
    assert code == 0
    assert doc["artifacts"]["m"] == 3
    assert doc["holds"] is True
    assert main(["mason", "z", "z + 1"]) == 3


def test_fermat_quadratic_identity(capsys):
    b = "(-i/2)*(sqrt(2)*z^2 + 2*z - sqrt(2))"
    c = "(-1/2)*(sqrt(2)*z^2 - 2*z - sqrt(2))"
    code, doc = run_json(capsys, ["fermat", "z^2", b, c, "--n", "2"])
    assert code == 0
    assert doc["statement"] == "FermatXYZ"
    assert doc["lhs"] == 2 and doc["rhs"] == "5/2"
    assert doc["artifacts"]["corollary_bound"] == 2

    assert main(["fermat", "z^2", b, c, "--n", "3"]) == 2
    assert main(["fermat", "z", "z"]) == 3


def test_divisor_table_inline(capsys):
    code, doc = run_json(
        capsys, ["divisor", "--divisor", "(0,2),(1,1),(2,3)", "--radii", "1,2,3"]
    )
    assert code == 0
    table = doc["artifacts"]["table"]
    assert [row["n"] for row in table] == [3, 6, 6]
    assert [row["n_tilde"] for row in table] == [1, 4, 4]
    assert all(row["error"] <= 1e-9 for row in table)


def test_divisor_table_from_file(tmp_path, capsys):
    path = tmp_path / "points.txt"
    path.write_text("(0, 2)\n# chain\n(1, 1)\n\n(2, 3)\n")
    code, doc = run_json(
        capsys, ["divisor", "--file", str(path), "--radii", "1,2,3"]
    )
    assert code == 0
    assert [row["n_tilde"] for row in doc["artifacts"]["table"]] == [1, 4, 4]


def test_divisor_input_validation(capsys):
    assert main(["divisor"]) == 3
    assert main(["divisor", "--divisor", "(0,1)", "--file", "x"]) == 3
    assert main(["divisor", "--file", "/no/such/file"]) == 3
    assert main(["divisor", "--divisor", "(0,1)", "--radii", "oops"]) == 3
    assert main(["divisor", "1;(0,1)"]) == 3
    assert main(["divisor", "--ord-inequality"]) == 3


def test_divisor_truncation_rows(capsys):
    code, doc = run_json(
        capsys,
        [
            "divisor", "--divisor", "(0,3),(3,4),(-3,1),(4,2)", "--kappa", "2",
            "--truncation", "--q", "3", "--n", "2", "--radii", "1/2,2",
        ],
    )
    assert code == 0
    rows = doc["artifacts"]["per_radius"]
    assert rows[0]["r"] == "1/2" and rows[0]["N_holds"] is None
    assert rows[1]["N_holds"] is True
    assert doc["holds"] is True


def test_divisor_ord_inequality(capsys):
    code, doc = run_json(capsys, ["divisor", "--ord-inequality", "1;(0,2)", "1;(-2,2)"])
    assert code == 0
    assert doc["statement"] == "OrdInequality"
    assert doc["artifacts"]["points_checked"] == 4

    assert main(["divisor", "--ord-inequality", "1;(0,1)", "2;(0,1)"]) == 2
    assert main(["divisor", "--ord-inequality", "1;(0,1)", "-1;(0,1)"]) == 2


def test_examples_runner(capsys):
    code, out = run(capsys, ["examples"])
    assert code == 0
    assert "6/6 fixtures reproduced" in out
    assert main(["examples", "bogus"]) == 3
    # the message itself, not the repr of a KeyError
    assert capsys.readouterr().err == "diffrad: unknown fixture names: bogus\n"


def test_examples_tamper_detected(monkeypatch, capsys):
    broken = dict(EXPECTED["shift-chain-radical"])
    broken["n_tilde"] = 5
    monkeypatch.setitem(EXPECTED, "shift-chain-radical", broken)
    code, out = run(capsys, ["examples", "shift-chain-radical"])
    assert code == 1
    assert "FAIL shift-chain-radical" in out


def test_jobs_option_is_gone(capsys):
    for argv in (["examples", "--jobs", "2"], ["radical", "z", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "--jobs" in capsys.readouterr().err


def test_adjoined_tower_session(capsys):
    code, doc = run_json(
        capsys, ["radical", "z^2 - 5", "--adjoin", "5", "--kappa", "sqrt(5)"]
    )
    assert code == 0
    assert doc["session"]["tower"] == "Q(i, sqrt(2), sqrt(3), sqrt(5))"
    assert doc["artifacts"]["n_tilde"] == 2
    assert main(["radical", "z", "--adjoin", "4"]) == 3


def test_json_schema_on_every_command(capsys, tmp_path):
    invocations = [
        ["radical", "z^2"],
        ["mason", "z^2 + z", "-(z^2 + 5*z + 6)", "-4*z - 6"],
        ["fermat", "1", "z", "z + 1"],
        ["divisor", "--divisor", "(0,1)"],
        ["examples", "shift-chain-radical"],
    ]
    for argv in invocations:
        code, doc = run_json(capsys, argv)
        assert code == 0, argv
        assert REQUIRED_KEYS <= set(doc), argv
        assert doc["command"] == argv[0]
        assert set(doc["session"]) == {"tower", "kappa", "seed", "coprimality"}


def _fresh_python(*args):
    """Run a new interpreter with this checkout's src/ on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_counting_runs_without_mpmath():
    """No part of the package needs mpmath: with its import blocked, the
    truncation check still certifies its integrals, in the CLI and the API."""
    code = "\n".join([
        "import sys",
        "sys.modules['mpmath'] = None",
        "from diffrad import Divisor, check_truncation, default_tower",
        "from diffrad.cli import main",
        "argv = ['divisor', '--divisor', '(1+sqrt(2),1),(3,2)', '--truncation']",
        "assert main(argv + ['--q', '2', '--n', '2']) == 0",
        "tower = default_tower()",
        "D = Divisor(tower, {1 + tower.sqrt_gen(1): 1, 3: 2})",
        "assert check_truncation(D, 1, 2, 2, [1, 2, 5, 10]).holds is True",
    ])
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "bound holds" in proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI call first pays for its imports; the records are NamedTuples,
    so dataclasses, and inspect with ast, dis and tokenize behind it, stay out."""
    code = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import diffrad.cli",
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))",
    ])
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cached_parser_keeps_no_state_between_calls(capsys):
    code, doc = run_json(capsys, ["radical", "sqrt(5)*z", "--adjoin", "5"])
    assert code == 0
    assert doc["session"]["tower"] == "Q(i, sqrt(2), sqrt(3), sqrt(5))"
    parser = cli._PARSER
    assert parser is not None
    # Without --adjoin the tower has no sqrt(5): the appended list must not linger.
    assert main(["radical", "sqrt(5)*z", "--json"]) == 3
    assert "not representable" in capsys.readouterr().err
    assert cli._PARSER is parser


def test_usage_error_then_valid_call_matches_fresh_process(capsys):
    argv = ["mason", "z^2 + z", "-(z^2 + 5*z + 6)", "-4*z - 6", "--kappa", "sqrt(2)", "--json"]
    with pytest.raises(SystemExit) as exc:
        main(["mason", "z", "z", "z", "--coprimality", "bogus"])
    assert exc.value.code == 3
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out
    proc = _fresh_python("-m", "diffrad.cli", *argv)
    assert proc.returncode == code, proc.stderr
    assert out == proc.stdout


def test_cached_parser_help_matches_a_fresh_parser(capsys):
    main(["radical", "z"])
    capsys.readouterr()
    for argv in (["--help"], ["mason", "--help"], ["divisor", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        cached = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(argv)
        assert cached == capsys.readouterr().out and "usage: diffrad" in cached


def test_enclosure_width_error_is_a_domain_error(monkeypatch, capsys):
    exact = field.FieldTower._bounds

    def never_narrow(tw, prec):
        # Still true bounds, but never closer than 2**-30 relative; the
        # padding is added outside the memo, so nothing padded outlives the test.
        pad = 1 << max(prec - 30, 0)
        return tuple((k, lo - pad, hi + pad) for k, lo, hi in exact(tw, prec))

    monkeypatch.setattr(field.FieldTower, "_bounds", never_narrow)
    # |1 + sqrt(2)|^2 is irrational, so its integral needs an enclosure.
    assert main(["divisor", "--divisor", "(1 + sqrt(2),1)", "--radii", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("diffrad: enclosure wider than") and "Traceback" not in err


@pytest.mark.parametrize(
    "expr",
    ["(" * 400 + "z" + ")" * 400, "z+" + "-" * 2000 + "z"],
    ids=["400 parentheses", "2000 minus signs"],
)
def test_deeply_nested_input_is_a_parse_error(capsys, expr):
    assert main(["radical", expr]) == 3
    err = capsys.readouterr().err
    assert err.startswith("diffrad: input nested too deeply") and "Traceback" not in err
    code, out = run(capsys, ["radical", "(" * 100 + "z" + ")" * 100])
    assert code == 0 and "n_tilde: 1" in out


def test_undecodable_divisor_file_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "divisor.txt"
    path.write_bytes(b"\xff\xfe(1,1)")
    assert main(["divisor", "--file", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"diffrad: cannot read {path}") and "Traceback" not in err


# One --adjoin past the deepest tower: five make depth 8 on the default tower.
OVER_DEEP = [arg for d in (5, 7, 11, 13, 17, 19) for arg in ("--adjoin", str(d))]

# Every typed error of errors.py that a command line can raise, with its exit
# code.  The rest cannot come from the CLI: --adjoin takes an integer, which
# is always real (NonRealRadicandError); a zero --kappa is refused while the
# session is built (ZeroShiftError); the CLI divides exactly only by proved
# divisors (NotDivisibleError).  EnclosureWidthError needs a patched
# enclosure and has its own test above.
TYPED_ERRORS = [
    ("ZeroRadicandError", ["radical", "z", "--adjoin", "0"], 3, "cannot adjoin sqrt(0)"),
    ("SquareRadicandError", ["radical", "z", "--adjoin", "8"], 3, "already a square"),
    ("TowerDepthError", ["radical", "z"] + OVER_DEEP, 3, "at most 8 square roots, got 9"),
    ("ParseError", ["radical", "2z"], 3, "trailing input 'z'"),
    ("UnknownConstantError", ["radical", "sqrt(5)*z"], 3, "sqrt(5) is not representable"),
    ("NegativeExponentError", ["radical", "z^-1"], 3, "exponents must be natural"),
    ("ZeroPolynomialError", ["radical", "0"], 2, "zero polynomial"),
    ("ZeroLeadingError", ["radical", "--factored", "0;(1,1)"], 2, "zero leading coefficient"),
    (
        "NonPositiveMultiplicityError",
        ["radical", "--factored", "1;(1,0)"],
        2,
        "multiplicity must be a positive integer",
    ),
    (
        "DependentInputsError",
        ["divisor", "--ord-inequality", "1;(0,1)", "2;(0,1)"],
        2,
        "linearly dependent",
    ),
    ("ZeroSumError", ["divisor", "--ord-inequality", "1;(0,1)", "-1;(0,1)"], 2, "add up to zero"),
]


# An integer literal past the interpreter's int/str digit limit.
LONG_LITERAL = ("ParseError", ["radical", "1" + "0" * 5000 + "*z"], 3, "integer literal too long")


@pytest.mark.parametrize(
    "name, argv, code, message",
    TYPED_ERRORS + [LONG_LITERAL],
    ids=[case[0] for case in TYPED_ERRORS] + ["ParseError-long-literal"],
)
def test_typed_error_exit_code(monkeypatch, capsys, name, argv, code, message):
    handled = []

    def spy(*args, **kwargs):
        # main prints the message inside its except clause, so the
        # exception being handled is the one that reached the CLI.
        handled.append(sys.exc_info()[0])
        print(*args, **kwargs)

    monkeypatch.setattr(cli, "print", spy, raising=False)
    assert main(argv) == code
    assert handled == [getattr(errors, name)]
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("diffrad: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("expr", ["(((2^200)^200)^200)^200*z", "((2^200)^200)^200*z"])
def test_power_bit_cap_is_a_parse_error(capsys, expr):
    start = time.monotonic()
    assert main(["radical", expr]) == 3
    assert time.monotonic() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("diffrad: powers are capped at 14285-bit coefficients")


@pytest.mark.parametrize(
    "expr", ["(2^70)^200*(2^70)^200*z", "(2^70*(z+1+i+sqrt(2)+sqrt(3)))^200"]
)
def test_unprintable_coefficient_is_a_parse_error(capsys, expr):
    start = time.monotonic()
    assert main(["radical", expr]) == 3
    assert time.monotonic() - start < 2.0
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("diffrad: coefficients are capped at 4300 digits")


@pytest.mark.parametrize(
    "argv",
    [
        ["divisor", "--divisor", "(1,1)", "--radii", "-1,2"],
        ["divisor", "--divisor", "(1,1)", "--radii", "-1,2", "--truncation"],
        ["divisor", "--ord-inequality", "1;(0,2)", "1;(-2,2)", "--radii", "-1"],
    ],
    ids=["table", "truncation", "ord-inequality"],
)
def test_negative_radius_message(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "diffrad: radius must be non-negative, got -1\n"


# Inside the parse cap, but the monic radical's constant term 1/lead has the
# norm a^2 - 2b^2 of the leading coefficient, about 16000 bits, below its bar.
UNPRINTABLE_RESULT = "((10^200)^12 + ((10^200)^12+1)*sqrt(2))*z + 1"


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_unprintable_result_is_a_typed_error(monkeypatch, capsys, mode):
    handled = []

    def spy(*args, **kwargs):
        handled.append(sys.exc_info()[0])
        print(*args, **kwargs)

    monkeypatch.setattr(cli, "print", spy, raising=False)
    assert main(["radical", UNPRINTABLE_RESULT, *mode]) == 2
    assert handled == [errors.PrintLimitError]
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err == "diffrad: printed coefficients are capped at 4300 digits\n"


def test_coefficient_of_exactly_4300_digits_prints(capsys):
    nines = "9" * 4300
    code, out = run(capsys, ["radical", f"{nines}*z + 1"])
    assert code == 0
    assert f"input: {nines}*z + 1\n" in out
    assert f"radical: z + 1/{nines}\n" in out


def test_largest_accepted_orders_still_answer(capsys):
    # The order caps refuse nothing below them: an n = 200 factorial power of
    # linear bases, and a truncation with n = q = 200.
    code, doc = run_json(capsys, ["fermat", "z", "1", "z+1", "--n", "200"])
    equation = next(h for h in doc["hypotheses"] if h["name"] == "equation")
    assert code == 2 and equation["detail"].startswith("equation fails, difference -200*z^199")
    argv = ["divisor", "--divisor", "(1,1),(2,1)", "--truncation", "--n", "200", "--q", "200"]
    code, doc = run_json(capsys, argv + ["--radii", "1,300"])
    assert code == 0 and doc["artifacts"]["factorial_support"] == 201


@pytest.mark.parametrize("expr", ["z^20000", "2^100000000", "(z^2)^101"])
def test_power_cap_is_a_parse_error(capsys, expr):
    assert main(["radical", expr]) == 3
    err = capsys.readouterr().err
    assert err.startswith("diffrad: powers are capped at exponent and degree 200")
    assert err.count("\n") == 1
    code, out = run(capsys, ["radical", "(z^2)^100"])
    assert code == 0 and "input: z^200" in out


def test_adjoin_reuses_the_tower_and_its_prime_scan(monkeypatch, capsys):
    """Each call rebuilds its tower from --adjoin, and gets the same object
    back, so the primes are scanned for it in the first call only."""
    monkeypatch.setattr(default_tower(), "_children", {})
    scanned = []
    image = modular._image

    def spy(tower, p):
        scanned.append(p)
        return image(tower, p)

    monkeypatch.setattr(modular, "_image", spy)
    argv = ["radical", "(z-1)*(z-2)*(z+sqrt(17))", "--json"]
    argv += ["--adjoin", "17", "--adjoin", "19", "--adjoin", "23"]
    per_call, outputs = [], []
    for _ in range(3):
        before = len(scanned)
        code, doc = run_json(capsys, argv)
        assert code == 0
        per_call.append(len(scanned) - before)
        outputs.append(doc)
    assert per_call[0] > 0 and per_call[1:] == [0, 0]
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["session"]["tower"] == "Q(i, sqrt(2), sqrt(3), sqrt(17), sqrt(19), sqrt(23))"


def test_tower_depth_cap_refuses_fast_and_the_deepest_tower_answers(monkeypatch, capsys):
    # Fresh children: the towers of depth 4 to 8 are built within the time.
    monkeypatch.setattr(default_tower(), "_children", {})
    start = time.perf_counter()
    assert main(["radical", "z^2*(z-1)"] + OVER_DEEP) == 3
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    assert out == "" and err == "diffrad: a tower holds at most 8 square roots, got 9\n"
    code, doc = run_json(capsys, ["radical", "z^2*(z-1)"] + OVER_DEEP[:-2])
    assert code == 0 and doc["artifacts"]["radical"] == "z^2 - z"
    assert doc["session"]["tower"].count("sqrt(") == 7  # and i: depth 8


REPORT_COMMANDS = [
    ["mason", "z^2", "2*z+1", "(z+1)^2"],
    ["mason", "z^2", "2*z+1", "(z+1)^2", "--multi"],
    ["mason", "z", "z^2", "z+z^2", "--multi"],  # hypotheses unmet
    ["fermat", "z", "1", "z+1", "--n", "1", "--form", "xyz"],
    ["divisor", "--ord-inequality", "1;(0,2)", "1;(-2,2)"],
    ["divisor", "--divisor", "(1+sqrt(2),1),(3,2)", "--truncation", "--q", "2"],
]


@pytest.mark.parametrize(
    "argv",
    REPORT_COMMANDS,
    ids=["mason", "mason-multi", "mason-multi-unmet", "fermat", "ord-inequality", "truncation"],
)
def test_report_output_is_built_only_for_its_mode(monkeypatch, capsys, argv):
    code, text = run(capsys, argv)
    json_code, doc = run_json(capsys, argv)
    assert code == json_code

    def unused(*args):
        raise AssertionError("built output that is not printed")

    monkeypatch.setattr(cli, "_report_lines", unused)
    assert run_json(capsys, argv) == (code, doc)
    monkeypatch.undo()
    monkeypatch.setattr(cli.CheckReport, "to_json_dict", unused)
    assert run(capsys, argv) == (code, text)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["radical", "--factored", "1;(1,10000000)"], "factored polynomial is capped at 200"),
        (["radical", "--factored", "1;(1,100),(2,101)"], "factored polynomial is capped at 200"),
        (["divisor", "--ord-inequality", "1;(0,201)", "1;(1,1)"], "capped at 200"),
        (["divisor", "--divisor", "(1,1)", "--radii", "1e9999999"], "exponent past 9999"),
        (["divisor", "--divisor", "(1,1)", "--radii", "2,1e-4300"], "past 4300 digits"),
    ],
    ids=["multiplicity 10^7", "degree 201", "ord-inequality", "radius 1e9999999", "radius 1e-4300"],
)
def test_inputs_that_would_run_for_seconds_are_parse_errors(capsys, argv, message):
    start = time.monotonic()
    assert main(argv) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("diffrad: ") and message in err and err.count("\n") == 1


def test_largest_factored_degree_and_radius_still_answer(capsys):
    assert main(["radical", "--factored", "1;(1,100),(2,100)"]) == 0
    assert main(["divisor", "--divisor", "(1,1)", "--radii", "1e4299,1e-4299", "--truncation"]) == 0


# -- the exit contract on drawn argv ------------------------------------------
#
# Every subcommand, with 0 to 7 --adjoin (square, zero and repeated
# radicands, and enough of them to pass the depth cap), orders from -5 to
# 500, exponents up to 10^7, literals of 4300 and 5001 digits, and stray
# characters.  Each call ends in 0, 1, 2 or 3 with no traceback, well inside
# CLI_CALL_SECONDS; the heaviest valid draws here take under a second.

CLI_CALL_SECONDS = 10.0

# New radicands come in one order, so that the session builds each tower,
# up to the depth-8 one, once.
_ADJOIN = st.one_of(
    st.just([]),
    st.integers(1, 7).map(lambda k: [5, 7, 11, 13, 17, 19, 23][:k]),
    st.lists(st.sampled_from([0, 4, -1, 2, 5, 7]), max_size=7),
)
_ORDER = st.integers(-5, 500).map(str)
# A term is small three times in four; strays are rare, so that a good share
# of the draws is valid and runs to a verdict.
_STRAY = st.sampled_from([""] * 8 + ["$", ")", "(", "^", ";", ",", "q", "٣", "sqrt(", "**"])
_LITERAL = st.sampled_from(["3", "1/2", "-1", "0", "9" * 4300, "1" + "0" * 5000])
_BASE = st.sampled_from(["z", "(z+1)", "(z-i)", "(z+sqrt(2))", "(z+1+i+sqrt(2)+sqrt(3))", "sqrt(5)"])
_SMALL_TERM = st.tuples(_BASE, st.integers(0, 7)).map(lambda t: f"{t[0]}^{t[1]}")
_LARGE_TERM = st.one_of(
    _LITERAL, st.tuples(_BASE, st.sampled_from([200, 201, 10**7])).map(lambda t: f"{t[0]}^{t[1]}")
)
_TERM = st.one_of(_SMALL_TERM, _SMALL_TERM, _SMALL_TERM, _LARGE_TERM)


def _with_stray(text):
    return st.tuples(text, _STRAY, st.booleans()).map(lambda t: t[0] + t[1] if t[2] else t[1] + t[0])


_POLY = _with_stray(st.lists(_TERM, min_size=1, max_size=3).map(" + ".join))
_ROOT = st.sampled_from(["0", "1", "-2", "i", "sqrt(2)", "1+i+sqrt(3)", "1/2", "sqrt(5)"])
_MULT = st.sampled_from([1, 2, 3, 1, 2, 3, -1, 0, 200, 201, 10**7])
_ENTRIES = st.lists(st.tuples(_ROOT, _MULT).map(lambda t: f"({t[0]},{t[1]})"), max_size=3).map(",".join)
_FACTORED = _with_stray(st.tuples(_LITERAL, _ENTRIES).map(lambda t: f"{t[0]};{t[1]}"))


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _switch(name):
    return st.sampled_from([[], [name]])


def _concat(*parts):
    return st.tuples(*parts).map(lambda ps: [arg for part in ps for arg in part])


# Three or four polynomials twice in three draws, else too few.
_POLYS = st.one_of(*[st.lists(_POLY, min_size=3, max_size=4)] * 2, st.lists(_POLY, max_size=2))
_COMMANDS = st.one_of(
    _concat(
        st.just(["radical"]),
        st.one_of(_POLY.map(lambda p: [p]), _FACTORED.map(lambda f: ["--factored", f])),
        _flag("--m", _ORDER), _switch("--classical"), _switch("--oracle"),
    ),
    _concat(st.just(["mason"]), _POLYS, _switch("--multi")),
    _concat(
        st.just(["fermat"]), _POLYS,
        _flag("--n", _ORDER), _flag("--form", st.sampled_from(["xyz", "sum", "sum1", "abc"])),
    ),
    _concat(
        st.just(["divisor", "--divisor"]), _ENTRIES.map(lambda e: [e]),
        _switch("--truncation"), _flag("--q", _ORDER), _flag("--n", _ORDER),
        _flag("--radii", st.sampled_from(["1,2", "0", "-1", "1/3,5", "x", "2.5e1", "1e4300", "1e9999999"])),
    ),
    _concat(
        st.just(["divisor", "--ord-inequality"]), st.lists(_FACTORED, max_size=3),
        _flag("--q", _ORDER), _flag("--radii", st.sampled_from(["1,2", "1e9999999"])),
    ),
    _concat(
        st.just(["examples"]),
        st.lists(st.sampled_from(["shift-chain-radical", "sharp-triple-deg2", "nope"]), max_size=2),
    ),
)
_ARGV = _concat(
    _COMMANDS,
    _ADJOIN.map(lambda ds: [arg for d in ds for arg in ("--adjoin", str(d))]),
    _flag("--kappa", st.sampled_from(["1", "0", "i", "1/2", "sqrt(2)", "$"])),
    _switch("--json"),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=_ARGV)
def test_cli_contract_on_drawn_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert time.monotonic() - start < CLI_CALL_SECONDS, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
