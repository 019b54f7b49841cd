"""Difference radicals of exact polynomials.

The order-m difference radical of p with shift kappa keeps each root w with
exponent  ord_w(p) - min_{0 <= j <= m-1} ord_{w + j*kappa}(p),  so roots whose
whole forward shift chain stays inside the zero set drop out.  Two independent
routes compute it: a gcd route on dense coefficients (no root data needed) and
a root route on factored input; the suite holds them equal.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ZeroPolynomialError
from .poly import (
    FactoredPoly,
    Polynomial,
    _shift_gcd_split,
    gcd,
    require_order,
    require_shift,
)


class RadicalResult(NamedTuple):
    """monic(p) = cofactor * radical; leading restores the input scale."""

    radical: Polynomial
    cofactor: Polynomial
    n_tilde: int
    leading: object  # FieldElement

    def reconstruct(self) -> Polynomial:
        return (self.cofactor * self.radical).scale(self.leading)


def diff_radical_m(p: Polynomial, kappa, m: int = 2) -> RadicalResult:
    """Order-m difference radical along the kappa-lattice (gcd route).

    The cofactor is the monic gcd of p(z), p(z+kappa), ..., p(z+(m-1)kappa);
    the radical is the monic exact quotient p / cofactor, the one that
    proving the cofactor already computed.
    """
    if p.is_zero():
        raise ZeroPolynomialError("radical of the zero polynomial is undefined")
    kappa = require_shift(p.tower, kappa, "difference radical")
    require_order(m, 2, "radical order")
    cofactor, radical = _shift_gcd_split(p, kappa, m)
    return RadicalResult(
        radical=radical,
        cofactor=cofactor,
        n_tilde=int(radical.degree),
        leading=p.lead,
    )


def diff_radical(p: Polynomial, kappa) -> RadicalResult:
    """The order-2 difference radical, gcd(p, p(z+kappa)) as cofactor."""
    return diff_radical_m(p, kappa, 2)


def n_tilde(p: Polynomial, kappa, m: int = 2) -> int:
    return diff_radical_m(p, kappa, m).n_tilde


def classical_radical(p: Polynomial) -> RadicalResult:
    """Squarefree part via gcd(p, p'); n_tilde counts distinct roots."""
    if p.is_zero():
        raise ZeroPolynomialError("radical of the zero polynomial is undefined")
    if p.degree == 0:
        one = Polynomial(p.tower, (1,))
        return RadicalResult(one, one, 0, p.lead)
    cofactor = gcd(p, p.derivative())
    radical = p.divide_exact(cofactor).monic()
    return RadicalResult(radical, cofactor, int(radical.degree), p.lead)


def diff_radical_from_roots(f: FactoredPoly, kappa, m: int = 2) -> RadicalResult:
    """Root-route oracle for diff_radical_m on factored input."""
    kappa = require_shift(f.tower, kappa, "difference radical")
    require_order(m, 2, "radical order")
    radical_factors = f.divisor.window_excess(kappa, m)
    exponents = dict(radical_factors)
    one = f.tower.one
    cofactor_factors = [
        (r, mult - exponents.get(r, 0)) for r, mult in f.factors if mult > exponents.get(r, 0)
    ]
    radical = FactoredPoly(one, radical_factors).expand()
    cofactor = FactoredPoly(one, cofactor_factors).expand()
    return RadicalResult(
        radical=radical,
        cofactor=cofactor,
        n_tilde=sum(exponents.values()),
        leading=f.leading,
    )


def n_tilde_sum_bound(f: FactoredPoly, kappa, m: int) -> tuple[int, int]:
    """(order-m count, sum over j of the order-2 counts at shift j*kappa).

    The left side never exceeds the right: a root surviving the m-window
    survives some single jump.  Both sides come from root data.
    """
    kappa = require_shift(f.tower, kappa, "difference radical")
    require_order(m, 2, "order")
    D = f.divisor
    lhs = sum(e for _, e in D.window_excess(kappa, m))
    rhs = sum(e for j in range(1, m) for _, e in D.window_excess(kappa * j, 2))
    return lhs, rhs
