"""Disc counting functions of finitely supported zero divisors.

A divisor (poly.Divisor, re-exported here) stores ord_w data for finitely
many points w; a FactoredPoly holds one for its roots. On top of it sit
the unintegrated counts n(r), the shift-truncated counts

    n_tilde_q(r) = sum over |w| <= r of (ord_w - min_{0<=j<=q} ord_{w+j*kappa}),

and their integrated companions, evaluated in closed form

    N(r) = sum_{0<|w|<=r} c_w log(r/|w|) + c_0 log r

with certified enclosures in integer fixed point: each logarithm is an
integer pair (lo, hi) at the scale 2**-prec, from the atanh series with
binary argument reduction (Brent and Zimmermann, Modern Computer
Arithmetic, 4.4), and the sums over the points are exact.  The min runs
over the q+1 points w, ..., w+q*kappa: poly.window_excess, the kernel of
the root-route radical too, with m = q+1, in _truncated_weights and, on the
factorial support it merges without sorting, in check_truncation.

Every count runs one kernel, a point table (_Table) per call.  The table
places each distinct point once among the sorted radii by exact
comparisons and encloses each distinct log|w|^2 once.  A sweep is a
weighted prefix sum over the table: one weight list gives per-radius
masses and log sums, and so n(r) and N(r) at every radius.  No floating
point enters before its last step, which rounds the enclosure of each
radius to a value and an error bound.

check_truncation verifies, radius by radius, that truncated counting of an
order-n factorial power is dominated by q plain counts of shifted copies.
Its 1+q sweeps read one table: the factorial divisor's support
{w - i*kappa : i < n} and the shifted supports {w - i*kappa : i < q} share
their points.  counting_table (the CLI table) is one plain and one
truncated sweep over one table, without the comparison.
check_ord_inequality verifies the per-point order inequality for
G = g_1 ... g_{m+1} / C at every enumerable candidate point, and certifies
the non-enumerable points (roots of the dense sum only) by exhibiting the
shift-gcd of the sum as a divisor of the Casoratian; its per-radius
aggregate reads a table of the candidate points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DependentInputsError, ZeroSumError
from .field import FieldElement, compare_real
from .mason import casoratian
from .poly import (
    Divisor,
    FactoredPoly,
    Polynomial,
    multi_gcd,
    require_order,
    require_shift,
    shift_gcd_factor,
    shift_window_excess,
    window_excess,
)
from .report import CheckReport, Hypothesis, Statement, chain_report

DEFAULT_PRECISION_BITS = 40


def divisor_of(f: FactoredPoly) -> Divisor:
    """Zero divisor of a polynomial given in product form: the one it holds."""
    return f.divisor


def shift_divisor(D: Divisor, kappa) -> Divisor:
    """Divisor of f(z + kappa): the support moves by -kappa."""
    return D.translate(-D.tower._coerce(kappa))


def factorial_divisor(D: Divisor, kappa, n: int) -> Divisor:
    """Divisor of the order-n factorial power built from D's function."""
    kappa = require_shift(D.tower, kappa, "factorial divisor")
    require_order(n, 1, "factorial order")
    entries = []
    for i in range(n):
        step = kappa * i
        entries.extend((w - step, c) for w, c in D.items())
    return Divisor(D.tower, entries)


def _truncated_weights(D: Divisor, kappa, q: int) -> list[tuple[FieldElement, int]]:
    """ord_w - min over shifts w, w+kappa, ..., w+q*kappa, per support point
    where it is positive: the m = q + 1 point window of window_excess."""
    kappa = require_shift(D.tower, kappa, "truncated counting")
    require_order(q, 1, "truncation order")
    return window_excess(D._support, kappa, q + 1)


@dataclass(frozen=True)
class CountingValue:
    """Exact count the integrand jumps through, plus its certified integral."""

    n_value: int
    N_value: float
    error: float


# The logarithms are integer pairs (lo, hi) at a binary scale:
# lo <= log(x) * 2**prec <= hi.

# ln 2 per scale
_LN2: dict[int, tuple[int, int]] = {}


def _atanh_fixed(u: int, v: int, prec: int) -> tuple[int, int]:
    """(lo, hi) with lo <= atanh(u/v) * 2**prec <= hi, for 0 <= u/v <= 1/3.

    The series sum_k t^(2k+1)/(2k+1) in fixed point: t is converted once,
    each power is the floor of the previous one times the fixed-point
    t^2 = (u^2 << prec) // v^2, and each term p // (2k+1).  Every floor
    rounds down, so the sum is a lower bound.  A power undershoots its true
    value by less than 3 units (one unit from its own floor, less than one
    from t^2's, and at most 1/9 of the previous error), a term by less than
    4, and once the power floors to 0 the true tail is below 3 * 9/8 < 4
    units: K terms are at most 4K + 4 units short.
    """
    if not u:
        return 0, 0
    p = (u << prec) // v
    t2 = ((u * u) << prec) // (v * v)
    s, k = 0, 1
    while p:
        s += p // k
        p = (p * t2) >> prec
        k += 2
    return s, s + 2 * k + 2  # k = 2K + 1


def _log_fixed(num: int, den: int, prec: int) -> tuple[int, int]:
    """(lo, hi) with lo <= log(num/den) * 2**prec <= hi, for num, den > 0.

    num/den = 2**e * y with y in (2/3, 4/3], and log(num/den) = e * ln 2 +
    2 atanh(t) with t = (y - 1)/(y + 1) in (-1/5, 1/7]; atanh is odd.
    ln 2 = 2 atanh(1/3) is computed once per scale.
    """
    e = num.bit_length() - den.bit_length()
    a, b = (num, den << e) if e >= 0 else (num << -e, den)
    if a < b:
        e -= 1
        a <<= 1
    if 3 * a > 4 * b:
        e += 1
        b <<= 1
    t_lo, t_hi = _atanh_fixed(abs(a - b), a + b, prec)
    lo, hi = (2 * t_lo, 2 * t_hi) if a >= b else (-2 * t_hi, -2 * t_lo)
    if e:
        ln2 = _LN2.get(prec)
        if ln2 is None:
            ln2 = _LN2[prec] = tuple(2 * x for x in _atanh_fixed(1, 3, prec))
        if e > 0:
            lo, hi = lo + e * ln2[0], hi + e * ln2[1]
        else:
            lo, hi = lo + e * ln2[1], hi + e * ln2[0]
    return lo, hi


MIN_PRECISION_BITS = 8
MAX_PRECISION_BITS = 1024


class _Table:
    """The points of one call placed among its sorted distinct radii.

    place(w) gives (|w|^2, k, tie): radii[k] is the first radius whose
    closed disc holds w (len(radii) when none does), and tie says that w lies
    on that circle, so its open discs start one radius later.  Each distinct
    point w != 0 costs one binary search of exact comparisons of |w|^2
    against the squared radii, the first time any sweep asks for it.  Each
    distinct |w|^2, and each radius, is given one logarithm enclosure: an
    integer pair (lo, hi) at the scale 2**-prec (_log_fixed).  Every count
    and sweep of the call reads the same table.

    precision_bits (in [MIN_PRECISION_BITS, MAX_PRECISION_BITS]) is the
    width asked of the boxes of irrational |w|^2; the logarithms work
    40 bits finer (80 at the least), far below the float rounding of the
    reported values.
    """

    __slots__ = ("radii", "_r_sq", "_bits", "_prec", "_places", "_logs", "_log_radii")

    def __init__(self, radii, precision_bits: int = DEFAULT_PRECISION_BITS):
        if not MIN_PRECISION_BITS <= precision_bits <= MAX_PRECISION_BITS:
            raise ValueError(
                f"precision_bits must be in [{MIN_PRECISION_BITS}, {MAX_PRECISION_BITS}],"
                f" got {precision_bits}"
            )
        if radii and radii[0] < 0:
            raise ValueError("radius must be non-negative")
        self.radii = radii
        self._r_sq = [r * r for r in radii]
        self._bits = max(precision_bits + 24, 64)
        self._prec = self._bits + 16
        self._places: dict = {}
        self._logs: dict = {}
        self._log_radii = None

    def place(self, w: FieldElement) -> tuple:
        hit = self._places.get(w)
        if hit is None:
            abs_sq = w.abs_squared()
            r_sq = self._r_sq
            lo, hi, tie = 0, len(r_sq) if w else 0, False
            while lo < hi:
                mid = (lo + hi) // 2
                side = compare_real(abs_sq, r_sq[mid])
                if side <= 0:
                    hi, tie = mid, tie or side == 0
                else:
                    lo = mid + 1
            hit = self._places[w] = (abs_sq, lo, tie)
        return hit

    def counts(self, weights) -> list:
        """Entry k: the weight in the closed disc of the k-th radius."""
        steps = [0] * (len(self.radii) + 1)
        for w, c in weights:
            steps[self.place(w)[1]] += c
        return list(itertools.accumulate(steps[:-1]))

    def _log_abs_sq(self, abs_sq: FieldElement) -> tuple[int, int]:
        """Enclosure of log|w|^2 at the scale 2**-prec, once per value.

        An irrational |w|^2 is boxed in [lo, hi] with lo > 0 (the box's
        precision doubles while it touches 0; embed raises past its cap).
        log is increasing and log(hi) - log(lo) = log(hi/lo) <= hi/lo - 1,
        so one logarithm, of lo, and that rational bound enclose it.
        """
        enc = self._logs.get(abs_sq)
        if enc is None:
            prec = self._prec
            if abs_sq.is_rational():
                x = abs_sq.as_fraction()
                enc = _log_fixed(x.numerator, x.denominator, prec)
            else:
                bits = self._bits
                box = abs_sq.embed(bits)
                while box.re_lo <= 0:
                    bits *= 2
                    box = abs_sq.embed(bits)
                lo, hi = box.re_lo, box.re_hi
                lo_num, lo_den = lo.numerator, lo.denominator
                low, high = _log_fixed(lo_num, lo_den, prec)
                # ceil((hi - lo)/lo * 2**prec), in integers
                gap = hi.numerator * lo_den - lo_num * hi.denominator
                enc = (low, high - (-(gap << prec) // (hi.denominator * lo_num)))
            self._logs[abs_sq] = enc
        return enc

    def sweep(self, weights) -> list[CountingValue]:
        """n(r) and the certified N(r) at each radius, for one weight list.

        The closed form

            2 N(r) = sum_{0<|w|<r} c_w (2 log r - log|w|^2) + 2 c_0 log r

        is a multiple of log r minus a prefix sum of per-point terms, so the
        sweep only adds up table entries: per-radius masses and log sums,
        accumulated over the radii.  Every entry is an integer pair at the
        scale 2**-prec, and a negative weight swaps the ends it multiplies,
        so the sums are exact and each radius ends with one pair (lo, hi)
        around 2 N(r).  N_value is its midpoint; the error is a little over
        its half width, plus 4e-16 |N_value| for the float roundings of the
        midpoint and of sums of rows.  A point on the circle |w| = r
        contributes exactly nothing, as log(r/|w|) = 0.
        """
        radii = self.radii
        if radii[0] <= 0:
            raise ValueError("integrated counting needs a positive radius")
        weights = list(weights)
        counts = self.counts(weights)
        prec = self._prec
        if self._log_radii is None:
            self._log_radii = [_log_fixed(r.numerator, r.denominator, prec) for r in radii]
        size = len(radii) + 1
        mass, logs_lo, logs_hi = [0] * size, [0] * size, [0] * size
        for w, c in weights:
            abs_sq, k, tie = self.place(w)
            k += tie
            mass[k] += c
            if abs_sq and k < len(radii):
                lo, hi = self._log_abs_sq(abs_sq)
                if c < 0:
                    lo, hi = hi, lo
                logs_lo[k] += c * lo
                logs_hi[k] += c * hi
        out = []
        inside = sum_lo = sum_hi = 0
        scale = 1 << (prec + 2)  # (lo + hi) / scale is the midpoint of N(r)
        rows = zip(self._log_radii, counts, mass, logs_lo, logs_hi)
        for (r_lo, r_hi), n_val, c, c_lo, c_hi in rows:
            inside, sum_lo, sum_hi = inside + c, sum_lo + c_lo, sum_hi + c_hi
            if inside < 0:
                r_lo, r_hi = r_hi, r_lo
            lo = 2 * inside * r_lo - sum_hi
            hi = 2 * inside * r_hi - sum_lo
            mid = (lo + hi) / scale
            out.append(CountingValue(n_val, mid, (hi - lo) / scale * 1.02 + 4e-16 * abs(mid)))
        return out


def n_count(D: Divisor, r) -> int:
    """Multiplicity mass inside the closed disc of radius r about 0."""
    return _Table([Fraction(r)]).counts(D.items())[0]


def n_tilde_q(D: Divisor, kappa, q: int, r) -> int:
    """Shift-truncated count inside the closed disc of radius r."""
    return _Table([Fraction(r)]).counts(_truncated_weights(D, kappa, q))[0]


def N_integrated(D: Divisor, r, precision_bits: int = DEFAULT_PRECISION_BITS) -> CountingValue:
    """n(r) together with the integrated count N(r) and its error bound."""
    return _Table([Fraction(r)], precision_bits).sweep(D.items())[0]


def N_tilde_q_integrated(
    D: Divisor, kappa, q: int, r, precision_bits: int = DEFAULT_PRECISION_BITS
) -> CountingValue:
    """Truncated count and its integral; the step function jumps at each |w|."""
    return _Table([Fraction(r)], precision_bits).sweep(_truncated_weights(D, kappa, q))[0]


def counting_table(
    D: Divisor, kappa, q: int, radii: Sequence, precision_bits: int = DEFAULT_PRECISION_BITS
) -> list[tuple[Fraction, CountingValue, CountingValue]]:
    """(r, N_integrated, N_tilde_q_integrated) at each distinct radius, ascending.

    The plain and the truncated sweep read one table of D's points.
    """
    radii = sorted({Fraction(r) for r in radii})
    if not radii:
        raise ValueError("need at least one radius")
    table = _Table(radii, precision_bits)
    plain = table.sweep(D.items())
    truncated = table.sweep(_truncated_weights(D, kappa, q))
    return list(zip(radii, plain, truncated))


def check_truncation(
    D: Divisor,
    kappa,
    q: int,
    n: int,
    radii: Sequence,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> CheckReport:
    """Truncated counting of an order-n factorial power vs q plain counts.

    At every radius r the exact level asserts

        n_tilde_q(factorial_divisor(D, kappa, n), kappa, q, r)
            <= sum_{i=0}^{q-1} n_count(shift_divisor(D, i*kappa), r)

    and the integrated level asserts the same shape up to certified error.
    The integrated comparison is only asserted at radii >= 1: below that
    the origin term carries a negative log r weight and integrating the
    count-level inequality no longer preserves its direction, so those rows
    report values without a verdict.
    """
    kappa = require_shift(D.tower, kappa, "truncation check")
    require_order(q, 1, "truncation order")
    require_order(n, 1, "factorial order")
    radii = [Fraction(r) for r in radii]
    if not radii:
        raise ValueError("need at least one radius")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    radii = sorted(set(radii))

    # One table for the 1+q sweeps: the factorial support {w - i*kappa : i < n}
    # and the shifted supports {w - i*kappa : i < q} share their points, so
    # each copy is built once.  The i-th shifted copy carries D's weights at
    # w - i*kappa; the factorial divisor is the sum of the first n copies.
    table = _Table(radii, precision_bits)
    copies = []
    for i in range(max(n, q)):
        step = kappa * i
        copies.append([(w - step, c) for w, c in D.items()])
    fact: dict[FieldElement, int] = {}
    for copy in copies[:n]:
        for w, c in copy:
            fact[w] = fact.get(w, 0) + c
    lhs_rows = table.sweep(window_excess(fact, kappa, q + 1))
    rhs_sweeps = [table.sweep(copy) for copy in copies[:q]]

    per_radius = []
    all_ok = True
    for r, lhs_cv, *rhs_cvs in zip(radii, lhs_rows, *rhs_sweeps):
        lhs_n = lhs_cv.n_value
        rhs_n = sum(cv.n_value for cv in rhs_cvs)
        rhs_N = sum(cv.N_value for cv in rhs_cvs)
        slack = lhs_cv.error + sum(cv.error for cv in rhs_cvs)
        n_ok = lhs_n <= rhs_n
        N_ok = lhs_cv.N_value <= rhs_N + slack if r >= 1 else None
        all_ok = all_ok and n_ok and (N_ok is not False)
        per_radius.append(
            {
                "r": str(r),
                "n_lhs": lhs_n,
                "n_rhs": rhs_n,
                "n_holds": n_ok,
                "N_lhs": lhs_cv.N_value,
                "N_rhs": rhs_N,
                "N_error": slack,
                "N_holds": N_ok,
            }
        )

    hypotheses = (
        Hypothesis("parameters", True, f"q={q}, n={n}, {len(radii)} radii"),
    )
    return CheckReport(
        Statement.TRUNCATION,
        hypotheses,
        lhs=per_radius[-1]["n_lhs"],
        rhs=per_radius[-1]["n_rhs"],
        holds=all_ok,
        artifacts={
            "q": q,
            "n": n,
            "support": len(D),
            "factorial_support": len(fact),
            "per_radius": per_radius,
        },
    )


def _cover_radius(points: Iterable[FieldElement]) -> Fraction:
    """A rational radius whose closed disc contains every given point."""
    best = Fraction(0)
    for w in points:
        abs_sq = w.abs_squared()
        if abs_sq.is_rational():
            hi = abs_sq.as_fraction()
        else:
            hi = abs_sq.embed(16).re_hi
        if hi > best:
            best = hi
    return Fraction(math.isqrt(math.ceil(best)) + 1)


def check_ord_inequality(
    gs: Sequence[FactoredPoly], kappa, radii: Sequence | None = None
) -> CheckReport:
    """Per-point order inequality for G = g_1 ... g_{m+1} / C.

    The inputs are the m summands in product form; the dense sum g_{m+1}
    and the Casoratian C of the summands are computed here. At every
    candidate point w (roots of the summands and their forward translates)
    with ord_w(G) > 0 the check asserts

        ord_w(G) <= sum_j (ord_w(g_j) - min_{0<=i<=m-1} ord_{w+i*kappa}(g_j)).

    Zeros of G that are roots of the dense sum alone cannot be enumerated
    exactly; for those the inequality reduces to
    min_i ord_{w+i*kappa}(g_{m+1}) <= ord_w(C), which is certified globally
    by checking that the shift-gcd of the sum divides C. The count-level
    aggregate over candidate points is reported at each radius.
    """
    m = len(gs)
    if m < 2:
        raise ValueError(f"need at least two summands, got {m}")
    tower = gs[0].tower
    if any(g.tower != tower for g in gs):
        raise ValueError("all summands must share one coefficient tower")
    kappa_el = require_shift(tower, kappa, "order inequality")

    dense = [g.expand() for g in gs]
    total = Polynomial.zero(tower)
    for p in dense:
        total = total + p
    if total.is_zero():
        raise ZeroSumError("the summands add up to zero")
    # For polynomials the Casoratian vanishes exactly on dependent inputs.
    C = casoratian(dense, kappa_el)
    if C.is_zero():
        raise DependentInputsError("summands are linearly dependent over constants")

    def chain():
        yield Hypothesis(
            "independent",
            True,
            "linearly independent over constants; over polynomials this is "
            "the same as independence over shift-periodic coefficients",
        )
        common = multi_gcd(dense)
        no_common = common.degree == 0
        yield Hypothesis(
            "no common zeros",
            no_common,
            "gcd of summands is constant" if no_common else f"common factor {common}",
        )

        # certificate for zeros of G lying only on the dense sum
        M = shift_gcd_factor(total, kappa_el, m)
        certificate = (C % M).is_zero()

        candidates: set[FieldElement] = set()
        for g in gs:
            for w in g.roots():
                for i in range(m):
                    candidates.add(w + kappa_el * i)
        ordered = sorted(candidates, key=lambda e: e.coords)

        # g_1 .. g_m answer from their root data, the dense sum g_{m+1} by Horner.
        ords = [g.ord_at for g in gs] + [total.ord_at]

        violations = []
        point_rows = []
        for w in ordered:
            lhs_w = sum(order(w) for order in ords) - C.ord_at(w)
            rhs_w = sum(shift_window_excess(order, w, kappa_el, m) for order in ords)
            point_rows.append((w, max(lhs_w, 0), rhs_w))
            if lhs_w > 0 and lhs_w > rhs_w:
                violations.append({"point": str(w), "lhs": lhs_w, "rhs": rhs_w})

        if radii is None:
            base = [Fraction(1), Fraction(2), Fraction(5), Fraction(10)]
            cover = _cover_radius(ordered)
            checked = sorted(set(base + [cover]))
        else:
            checked = sorted({Fraction(r) for r in radii})
            if any(r < 0 for r in checked):
                raise ValueError("radii must be non-negative")

        # Each point placed once among the radii; the aggregates are prefix sums.
        table = _Table(checked)
        lhs_sums = table.counts((w, lhs_w) for w, lhs_w, _ in point_rows)
        rhs_sums = table.counts((w, rhs_w) for w, _, rhs_w in point_rows)
        per_radius = []
        agg_ok = True
        last_lhs = last_rhs = 0
        for r, lhs_r, rhs_r in zip(checked, lhs_sums, rhs_sums):
            ok = lhs_r <= rhs_r
            agg_ok = agg_ok and ok
            last_lhs, last_rhs = lhs_r, rhs_r
            per_radius.append({"r": str(r), "lhs": lhs_r, "rhs": rhs_r, "holds": ok})

        return dict(
            lhs=last_lhs,
            rhs=last_rhs,
            holds=not violations and certificate and agg_ok,
            artifacts={
                "m": m,
                "points_checked": len(ordered),
                "violations": violations,
                "shift_gcd_divides_casoratian": certificate,
                "casoratian_degree": int(C.degree),
                "per_radius": per_radius,
            },
        )

    return chain_report(Statement.ORD_INEQUALITY, chain())
