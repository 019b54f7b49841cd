"""Command line front end.

Exit codes: 0 the requested statement verified, 1 a proved inequality
failed on exact data (bug signal), 2 hypotheses or domain preconditions
unmet, 3 usage or parse errors.

JSON output always carries {command, session, hypotheses, lhs, rhs,
holds, artifacts} with deterministic key order.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import NamedTuple

from .divisor import (
    DEFAULT_RADII,
    Divisor,
    check_ord_inequality,
    check_truncation,
    counting_table,
    divisor_of,
)
from .errors import EnclosureWidthError, NotDivisibleError, ParseError
from .examples import FIXTURES, run_all
from .fermat import FermatInstance, Form, check_fermat_theorem
from .field import FieldElement, FieldTower, default_tower
from .mason import check_mason_multi, check_mason_triple
from .parser import (
    _MAX_LITERAL,
    MAX_DIGITS,
    MAX_POWER,
    iter_objects,
    parse_constant,
    parse_factored,
    parse_poly,
    parse_root_mult,
    print_element,
    print_poly,
)
from .poly import FactoredPoly, Polynomial
from .radical import (
    classical_radical,
    diff_radical_from_roots,
    diff_radical_m,
)
from .report import CheckReport

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_HYPOTHESES = 2
EXIT_USAGE = 3

# Every typed error of errors.py but these two is a ValueError.
_DOMAIN_ERRORS = (EnclosureWidthError, NotDivisibleError, ValueError)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class Session(NamedTuple):
    tower: FieldTower
    kappa: FieldElement
    json_output: bool
    seed: int | None
    coprimality: str

    def describe(self) -> dict:
        return {
            "tower": self.tower.describe(),
            "kappa": print_element(self.kappa),
            "seed": self.seed,
            "coprimality": self.coprimality,
        }


def _build_session(args) -> Session:
    tower = default_tower()
    for d in args.adjoin or ():
        tower = tower.adjoin_sqrt(Fraction(d))
    kappa = parse_constant(args.kappa, tower)
    if kappa.is_zero():
        raise ParseError("--kappa must be nonzero")
    return Session(
        tower=tower,
        kappa=kappa,
        json_output=args.json,
        seed=args.seed,
        coprimality=args.coprimality,
    )


def _parse_radii(text: str) -> list[Fraction]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        # Fraction builds 10**exponent in full: 1e9999999 takes seconds.
        if len(chunk.lower().partition("e")[2].lstrip("+-0")) > 4:
            raise ParseError(f"bad radius {chunk!r}: exponent past 9999")
        try:
            r = Fraction(chunk)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad radius {chunk!r}") from exc
        if max(abs(r.numerator), r.denominator) > _MAX_LITERAL:
            raise ParseError(f"bad radius {chunk!r}: past {MAX_DIGITS} digits")
        out.append(r)
    if not out:
        raise ParseError("--radii needs at least one value")
    return out


def _read_divisor(session: Session, inline: str | None, path: str | None) -> Divisor:
    if (inline is None) == (path is None):
        raise ParseError("give exactly one of --divisor or --file")
    if inline is not None:
        body = inline if ";" in inline else "1;" + inline
        return divisor_of(parse_factored(body, session.tower))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    entries = [parse_root_mult(obj, session.tower) for obj in iter_objects(lines)]
    return Divisor(session.tower, entries)


def _parse_expanded(text: str, tower: FieldTower) -> FactoredPoly:
    f = parse_factored(text, tower)  # multiplied out, so capped like a parsed power
    if f.degree > MAX_POWER:
        raise ParseError(f"the degree of a factored polynomial is capped at {MAX_POWER}")
    return f


def _emit(session: Session, command: str, payload: dict, text_lines: list[str]) -> None:
    if session.json_output:
        doc = {"command": command, "session": session.describe()}
        doc.update(payload)
        for key in ("hypotheses", "lhs", "rhs", "holds", "artifacts"):
            doc.setdefault(key, [] if key == "hypotheses" else None)
        print(json.dumps(doc, sort_keys=True, default=str))
    else:
        for line in text_lines:
            print(line)


def _report_lines(report: CheckReport) -> list[str]:
    lines = [f"statement: {report.statement.value}"]
    for h in report.hypotheses:
        mark = "ok" if h.passed else "FAIL"
        lines.append(f"hypothesis {h.name}: {mark} ({h.detail})")
    if not report.hypotheses_ok:
        lines.append("hypotheses unmet; statement not evaluated")
        return lines
    if report.lhs is not None:
        lines.append(f"lhs = {report.lhs}")
        lines.append(f"rhs = {report.rhs}")
    if report.holds is not None:
        verdict = "holds" if report.holds else "VIOLATED"
        if report.holds and report.sharp:
            verdict += " (sharp)"
        lines.append(f"bound {verdict}")
    for key in sorted(report.artifacts):
        value = json.dumps(report.artifacts[key], sort_keys=True, default=str)
        lines.append(f"{key}: {value}")
    return lines


def _emit_report(session: Session, command: str, report: CheckReport) -> int:
    # Only the output that is printed gets built.
    if session.json_output:
        _emit(session, command, report.to_json_dict(), [])
    else:
        _emit(session, command, {}, _report_lines(report))
    return report.exit_code()


def cmd_radical(session: Session, args) -> int:
    if (args.poly is None) == (args.factored is None):
        raise ParseError("give exactly one of POLY or --factored")
    if args.oracle and args.factored is None:
        raise ParseError("--oracle needs --factored input (known roots)")
    if args.m < 2:
        raise ParseError("--m must be at least 2")

    factored = None
    if args.factored is not None:
        factored = _parse_expanded(args.factored, session.tower)
        poly = factored.expand()
    else:
        poly = parse_poly(args.poly, session.tower)

    res = diff_radical_m(poly, session.kappa, args.m)
    artifacts = {
        "input": print_poly(poly),
        "m": args.m,
        "radical": print_poly(res.radical),
        "cofactor": print_poly(res.cofactor),
        "n_tilde": res.n_tilde,
    }
    lines = [
        f"input: {artifacts['input']}",
        f"kappa: {print_element(session.kappa)}  order: {args.m}",
        f"radical: {artifacts['radical']}",
        f"cofactor: {artifacts['cofactor']}",
        f"n_tilde: {res.n_tilde}",
    ]

    if args.classical:
        cl = classical_radical(poly)
        artifacts["classical_radical"] = print_poly(cl.radical)
        artifacts["classical_count"] = cl.n_tilde
        lines.append(f"classical radical: {artifacts['classical_radical']}")
        lines.append(f"classical count: {artifacts['classical_count']}")

    exit_code = EXIT_OK
    if args.oracle:
        other = diff_radical_from_roots(factored, session.kappa, args.m)
        agree = other.radical == res.radical and other.n_tilde == res.n_tilde
        artifacts["oracle_radical"] = print_poly(other.radical)
        artifacts["oracle_agrees"] = agree
        lines.append(f"oracle radical: {artifacts['oracle_radical']}")
        lines.append(f"oracle agrees: {'yes' if agree else 'NO'}")
        if not agree:
            exit_code = EXIT_VIOLATION

    payload = {
        "holds": None if not args.oracle else artifacts["oracle_agrees"],
        "artifacts": artifacts,
    }
    _emit(session, "radical", payload, lines)
    return exit_code


def cmd_mason(session: Session, args) -> int:
    polys = [parse_poly(text, session.tower) for text in args.polys]
    if len(polys) < 3:
        raise ParseError("mason needs at least three polynomials")
    if len(polys) == 3 and not args.multi:
        report = check_mason_triple(polys[0], polys[1], polys[2], session.kappa)
    else:
        report = check_mason_multi(polys, session.kappa, coprimality=session.coprimality)
    return _emit_report(session, "mason", report)


def cmd_fermat(session: Session, args) -> int:
    polys = [parse_poly(text, session.tower) for text in args.polys]
    form = Form(args.form)
    try:
        inst = FermatInstance(tuple(polys), session.kappa, args.n, form)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    # The factorial powers have degree n * deg: capped like a parsed power.
    if args.n * max(1, *(p.degree for p in polys)) > MAX_POWER:
        raise ParseError(f"--n times the largest base degree is capped at {MAX_POWER}")
    report = check_fermat_theorem(inst, coprimality=session.coprimality)
    return _emit_report(session, "fermat", report)


def cmd_divisor(session: Session, args) -> int:
    for flag, value in (("--q", args.q), ("--n", args.n)):
        if value < 1:
            raise ParseError(f"{flag} must be at least 1")
        if value > MAX_POWER:
            raise ParseError(f"{flag} is capped at {MAX_POWER}")
    radii = _parse_radii(args.radii)

    if args.ord_inequality:
        if not args.inputs:
            raise ParseError("--ord-inequality needs factored polynomials")
        gs = [_parse_expanded(text, session.tower) for text in args.inputs]
        report = check_ord_inequality(gs, session.kappa, radii)
        return _emit_report(session, "divisor", report)

    if args.inputs:
        raise ParseError("positional inputs are only used with --ord-inequality")
    D = _read_divisor(session, args.divisor, args.file)

    if args.truncation:
        report = check_truncation(D, session.kappa, args.q, args.n, radii)
        return _emit_report(session, "divisor", report)

    rows = []
    table = counting_table(D, session.kappa, args.q, radii)
    for r, plain, trunc in table:
        rows.append(
            {
                "r": str(r),
                "n": plain.n_value,
                "n_tilde": trunc.n_value,
                "N": plain.N_value,
                "N_tilde": trunc.N_value,
                "error": max(plain.error, trunc.error),
            }
        )
    lines = [f"divisor: {len(D)} points, total multiplicity {D.total()}"]
    lines.append(f"kappa: {print_element(session.kappa)}  q: {args.q}")
    lines.append("r | n | n_tilde | N | N_tilde")
    for row in rows:
        lines.append(
            f"{row['r']} | {row['n']} | {row['n_tilde']} | "
            f"{row['N']:.12f} | {row['N_tilde']:.12f}"
        )
    _emit(session, "divisor", {"artifacts": {"q": args.q, "table": rows}}, lines)
    return EXIT_OK


def cmd_examples(session: Session, args) -> int:
    names = args.names or None
    try:
        results = run_all(names=names)
    except KeyError as exc:
        raise ParseError(exc.args[0]) from exc
    all_ok = all(res.ok for res in results)
    lines = []
    for res in results:
        lines.append(f"{'PASS' if res.ok else 'FAIL'} {res.name}")
        for miss in res.mismatches:
            lines.append(f"  {miss}")
    lines.append(f"{sum(res.ok for res in results)}/{len(results)} fixtures reproduced")
    payload = {
        "holds": all_ok,
        "artifacts": {
            "fixtures": [
                {"name": res.name, "ok": res.ok, "values": res.values,
                 "mismatches": list(res.mismatches)}
                for res in results
            ]
        },
    }
    _emit(session, "examples", payload, lines)
    return EXIT_OK if all_ok else EXIT_VIOLATION


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kappa", default="1", help="shift constant (expression)")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, default=None, help="echoed in reports")
    common.add_argument(
        "--coprimality",
        choices=("pairwise", "setwise"),
        default="setwise",
        help="coprimality mode for multi-term checks",
    )
    common.add_argument(
        "--adjoin",
        type=int,
        action="append",
        help="adjoin sqrt(D) to the base tower (repeatable)",
    )

    parser = _Parser(prog="diffrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rad = sub.add_parser("radical", parents=[common], help="difference radical of a polynomial")
    p_rad.add_argument("poly", nargs="?", help="polynomial expression in z")
    p_rad.add_argument("--factored", help="product form 'gamma;(root,mult),...'")
    p_rad.add_argument("--m", type=int, default=2, help="radical order (default 2)")
    p_rad.add_argument("--classical", action="store_true", help="also print the classical radical")
    p_rad.add_argument("--oracle", action="store_true", help="cross-check gcd route against roots")
    p_rad.set_defaults(func=cmd_radical)

    p_mason = sub.add_parser("mason", parents=[common], help="degree bounds for polynomial sums")
    p_mason.add_argument("polys", nargs="+", help="3 polynomials, or m summands plus their sum")
    p_mason.add_argument("--multi", action="store_true", help="force the m+1-term check for 3 inputs")
    p_mason.set_defaults(func=cmd_mason)

    p_fermat = sub.add_parser("fermat", parents=[common], help="factorial-power equation bounds")
    p_fermat.add_argument("polys", nargs="+", help="base polynomials")
    p_fermat.add_argument("--n", type=int, default=1, help="factorial order")
    p_fermat.add_argument("--form", choices=[f.value for f in Form], default="xyz")
    p_fermat.set_defaults(func=cmd_fermat)

    p_div = sub.add_parser("divisor", parents=[common], help="disc counting functions")
    p_div.add_argument("inputs", nargs="*", help="factored polynomials (with --ord-inequality)")
    p_div.add_argument("--divisor", help="inline entries '(root,mult),(root,mult),...'")
    p_div.add_argument("--file", help="file with one (root,mult) per line")
    p_div.add_argument("--q", type=int, default=1, help="truncation order")
    p_div.add_argument("--n", type=int, default=1, help="factorial order for --truncation")
    p_div.add_argument(
        "--radii", default=",".join(map(str, DEFAULT_RADII)), help="comma-separated rational radii"
    )
    p_div.add_argument("--truncation", action="store_true", help="run the truncation check")
    p_div.add_argument("--ord-inequality", action="store_true", help="run the order inequality check")
    p_div.set_defaults(func=cmd_divisor)

    p_ex = sub.add_parser("examples", parents=[common], help="replay built-in worked examples")
    p_ex.add_argument("names", nargs="*", help=f"subset of: {', '.join(f.name for f in FIXTURES)}")
    p_ex.set_defaults(func=cmd_examples)

    return parser


def _escape_expressions(argv: list[str]) -> list[str]:
    """Let polynomial arguments begin with a minus sign.

    Every defined option is either -h or a --long flag, so any other token
    starting with a single dash must be an expression such as -(z+1)*z or a
    negative constant. A leading space hides it from argparse's option
    detection; the tokenizer skips it.
    """
    out = []
    for tok in argv:
        if tok.startswith("-") and not tok.startswith("--") and tok != "-h" and len(tok) > 1:
            out.append(" " + tok)
        else:
            out.append(tok)
    return out


# Built on the first main() call and reused by every later call in the process.
_PARSER: _Parser | None = None


def main(argv=None) -> int:
    global _PARSER
    if argv is None:
        argv = sys.argv[1:]
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(_escape_expressions(list(argv)))
    try:
        session = _build_session(args)
    except (ParseError, *_DOMAIN_ERRORS) as exc:
        print(f"diffrad: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(session, args)
    except ParseError as exc:
        print(f"diffrad: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DOMAIN_ERRORS as exc:
        print(f"diffrad: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES


if __name__ == "__main__":
    sys.exit(main())
