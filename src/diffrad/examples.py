"""Built-in worked examples with frozen expected values.

Each fixture rebuilds a small identity from scratch with exact arithmetic
and returns a dict of computed values; EXPECTED pins what those values
must be. The runner reports any drift, so these double as end-to-end
regression checks for the whole stack (field, poly, radical, mason,
fermat).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .fermat import FermatInstance, Form, check_fermat_theorem
from .field import default_tower
from .mason import check_mason_multi, check_mason_triple
from .parser import print_poly
from .poly import FactoredPoly, Polynomial
from .radical import diff_radical, n_tilde


def _shift_chain_radical() -> dict:
    """Zeros of orders 2, 1, 3 on the chain 0, 1, 2; shift 1."""
    T = default_tower()
    p = FactoredPoly(
        T.rational(1),
        [(T.rational(0), 2), (T.rational(1), 1), (T.rational(2), 3)],
    ).expand()
    res = diff_radical(p, 1)
    return {
        "degree": int(p.degree),
        "n_tilde": res.n_tilde,
        "radical": print_poly(res.radical),
        "reconstructs": res.reconstruct() == p,
    }


def _sharp_triple_deg2() -> dict:
    """a = z(z+1), b = -(z+2)(z+3), c = a + b; bound met with equality."""
    T = default_tower()
    a = FactoredPoly(T.rational(1), [(T.rational(0), 1), (T.rational(-1), 1)]).expand()
    b = FactoredPoly(T.rational(-1), [(T.rational(-2), 1), (T.rational(-3), 1)]).expand()
    c = a + b
    rep = check_mason_triple(a, b, c, 1)
    return {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "holds": rep.holds,
        "sharp": rep.sharp,
        "n_tilde": rep.artifacts["n_tilde"],
        "c": print_poly(c),
    }


def _sharp_triple_deg4() -> dict:
    """Quartic triple built on a primitive sixth root of unity; bound sharp."""
    T = default_tower()
    i = T.sqrt_gen(0)
    s3 = T.sqrt_gen(2)
    nu = (T.one + s3 * i) / 2
    alpha = T.one - nu
    beta = nu
    A = i / (s3 * 4)
    a = FactoredPoly(A, [(-alpha, 2), (-alpha - 1, 2)]).expand()
    b = FactoredPoly(-A, [(-beta, 2), (-beta - 1, 2)]).expand()
    c = FactoredPoly(
        T.rational(1), [(T.rational(0), 1), (T.rational(-1), 1), (T.rational(-2), 1)]
    ).expand()
    rep = check_mason_triple(a, b, c, 1)
    return {
        "sum_matches": a + b == c,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "holds": rep.holds,
        "sharp": rep.sharp,
        "n_tilde": rep.artifacts["n_tilde"],
    }


def _four_term_order_gap() -> dict:
    """Order-2 radicals are too small for four summands; order-3 ones work."""
    T = default_tower()
    c = T.rational(2)
    i = T.sqrt_gen(0)
    s2 = T.sqrt_gen(1)
    p1 = FactoredPoly(T.one, [(c, 1), (-c, 1)]).expand()
    p2 = FactoredPoly(T.one, [(c * i, 1), (-(c * i), 1)]).expand()
    p3 = FactoredPoly(i * s2, [(T.rational(0), 2)]).expand()
    a1 = p1 * p1.taylor_shift(T.one)
    a2 = p2 * p2.taylor_shift(T.one)
    a3 = p3 * p3.taylor_shift(T.one)
    a4 = a1 + a2 + a3
    rep = check_mason_multi([a1, a2, a3, a4], 1)
    crude = sum(n_tilde(p, 1, 2) for p in (a1, a2, a3, a4))
    crude_rhs = crude - 3
    return {
        "sum_constant": str(a4.constant_value().as_fraction()),
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "holds": rep.holds,
        "n_tilde_m": rep.artifacts["n_tilde"],
        "crude_rhs": crude_rhs,
        "crude_holds": rep.lhs <= crude_rhs,
        "casoratian_divisible": rep.artifacts["casoratian_divisible_by_gcd_product"],
    }


def _four_term_constant_sum() -> dict:
    """Three quartics tuned so their sum collapses to -9/16."""
    T = default_tower()
    i = T.sqrt_gen(0)
    s2 = T.sqrt_gen(1)
    alpha = i / (s2 * 2)
    beta = -alpha
    A = T.rational(2) - s2 * i
    B = T.rational(2) + s2 * i
    a1 = FactoredPoly(A, [(-alpha, 1), (-alpha - 1, 1), (-alpha - 2, 2)]).expand()
    a2 = FactoredPoly(B, [(-beta, 1), (-beta - 1, 1), (-beta - 2, 2)]).expand()
    a3 = FactoredPoly(
        -(A + B),
        [(T.rational(0), 1), (T.rational(-1), 1), (T.rational(-2), 1), (T.rational(-3), 1)],
    ).expand()
    a4 = a1 + a2 + a3
    rep = check_mason_multi([a1, a2, a3, a4], 1)
    return {
        "sum_constant": str(a4.constant_value().as_fraction()),
        "sum_degree": int(a4.degree),
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "holds": rep.holds,
        "n_tilde_m": rep.artifacts["n_tilde"],
    }


def _factorial_square_identity() -> dict:
    """Order-2 factorials of three quadratics satisfying [a]+[b]=[c]."""
    T = default_tower()
    i = T.sqrt_gen(0)
    s2 = T.sqrt_gen(1)
    half = Fraction(1, 2)
    a = Polynomial(T, (0, 0, 1))
    b = Polynomial(T, (i * s2 * half, -i, -i * s2 * half))
    c = Polynomial(T, (s2 * half, 1, -s2 * half))
    inst = FermatInstance((a, b, c), T.one, 2, Form.XYZ)
    rep = check_fermat_theorem(inst)
    return {
        "n": 2,
        "lhs": rep.lhs,
        "rhs": str(rep.rhs),
        "holds": rep.holds,
        "corollary_bound": rep.artifacts["corollary_bound"],
    }


class Fixture(NamedTuple):
    name: str
    summary: str
    build: Callable[[], dict]


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        "shift-chain-radical",
        "difference radical of a polynomial with zeros on a shift chain",
        _shift_chain_radical,
    ),
    Fixture(
        "sharp-triple-deg2",
        "degree-2 triple meeting the three-term bound with equality",
        _sharp_triple_deg2,
    ),
    Fixture(
        "sharp-triple-deg4",
        "degree-4 triple meeting the three-term bound with equality",
        _sharp_triple_deg4,
    ),
    Fixture(
        "four-term-order-gap",
        "four-term identity where order-2 radicals undershoot the bound",
        _four_term_order_gap,
    ),
    Fixture(
        "four-term-constant-sum",
        "three quartics whose sum collapses to a constant",
        _four_term_constant_sum,
    ),
    Fixture(
        "factorial-square-identity",
        "squared order-2 factorials of quadratics summing exactly",
        _factorial_square_identity,
    ),
)

EXPECTED: dict[str, dict] = {
    "shift-chain-radical": {
        "degree": 6,
        "n_tilde": 4,
        "radical": "z^4 - 6*z^3 + 12*z^2 - 8*z",
        "reconstructs": True,
    },
    "sharp-triple-deg2": {
        "lhs": 2,
        "rhs": 2,
        "holds": True,
        "sharp": True,
        "n_tilde": [1, 1, 1],
        "c": "-4*z - 6",
    },
    "sharp-triple-deg4": {
        "sum_matches": True,
        "lhs": 4,
        "rhs": 4,
        "holds": True,
        "sharp": True,
        "n_tilde": [2, 2, 1],
    },
    "four-term-order-gap": {
        "sum_constant": "32",
        "lhs": 4,
        "rhs": 9,
        "holds": True,
        "n_tilde_m": [4, 4, 4, 0],
        "crude_rhs": 3,
        "crude_holds": False,
        "casoratian_divisible": True,
    },
    "four-term-constant-sum": {
        "sum_constant": "-9/16",
        "sum_degree": 0,
        "lhs": 4,
        "rhs": 5,
        "holds": True,
        "n_tilde_m": [3, 3, 2, 0],
    },
    "factorial-square-identity": {
        "n": 2,
        "lhs": 2,
        "rhs": "5/2",
        "holds": True,
        "corollary_bound": 2,
    },
}


class FixtureResult(NamedTuple):
    name: str
    values: dict
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


_MISSING = object()


def run_fixture(fixture: Fixture, expected: dict | None = None) -> FixtureResult:
    values = fixture.build()
    want = EXPECTED.get(fixture.name, {}) if expected is None else expected
    mismatches = []
    for key, target in want.items():
        got = values.get(key, _MISSING)
        if got is _MISSING:
            mismatches.append(f"{fixture.name}.{key}: expected {target!r}, value missing")
        elif got != target:
            mismatches.append(f"{fixture.name}.{key}: expected {target!r}, got {got!r}")
    return FixtureResult(fixture.name, values, tuple(mismatches))


def run_all(names: Sequence[str] | None = None) -> list[FixtureResult]:
    if names is not None:
        known = {f.name for f in FIXTURES}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise KeyError(f"unknown fixture names: {', '.join(unknown)}")
    return [run_fixture(f) for f in FIXTURES if names is None or f.name in names]
