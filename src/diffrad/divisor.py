"""Disc counting functions of finitely supported zero divisors.

A divisor (poly.Divisor, re-exported here) stores ord_w data for finitely
many points w; a FactoredPoly holds one for its roots. On top of it sit
the unintegrated counts n(r), the shift-truncated counts

    n_tilde_q(r) = sum over |w| <= r of (ord_w - min_{0<=j<=q} ord_{w+j*kappa}),

and their integrated companions, evaluated in closed form

    N(r) = sum_{0<|w|<=r} c_w log(r/|w|) + c_0 log r

with certified enclosures in integer fixed point: each logarithm is an
integer pair (lo, hi) at the fixed scale 2**-80, from the atanh series with
binary argument reduction (Brent and Zimmermann, Modern Computer
Arithmetic, 4.4), and the sums over the points are exact.  The min runs
over the q+1 points w, ..., w+q*kappa: Divisor.window_excess, the kernel of
the root-route radical too, with m = q+1 in _truncated_weights.

Every count runs one kernel, a point table (_Table) per call.  The table
is the one home of the radii: it converts them to Fractions, deduplicates
and sorts them, and rejects an empty list or a negative radius.  It places
each distinct point once among them and encloses each distinct log|w|^2
once, both from one certified integer box of each distinct |w|^2, at most
2**-64 wide (field.scaled_box; a rational value is its own zero-width box).  A
placement decides a radius by the box only when the radius lies strictly
outside it; ties (rational |w|^2 only) are decided exactly, and a radius
inside the box goes to the exact sign recursion (field.compare_real), so
every count stays exact.  A sweep is a weighted prefix sum over the table:
one weight list gives per-radius masses and log sums, and so n(r) and N(r)
at every radius.  No floating point enters before its last step, which
rounds the enclosure of each radius to a value and an error bound.

check_truncation verifies, radius by radius, that truncated counting of an
order-n factorial power is dominated by the plain count of the order-q one,
which is the sum of q plain counts of shifted copies.  Its two sweeps read
one table and one shift chain: the supports {w - i*kappa : i < n} and
{w - i*kappa : i < q} of the two factorial divisors are prefixes of the
copies {w - i*kappa : i < max(n, q)}, built once.  counting_table (the CLI
table) is one plain and one truncated sweep over one table, without the
comparison.
check_ord_inequality verifies the per-point order inequality for
G = g_1 ... g_{m+1} / C at every enumerable candidate point, and certifies
the non-enumerable points (roots of the dense sum only) by exhibiting the
shift-gcd of the sum as a divisor of the Casoratian; its per-radius
aggregate reads a table of the candidate points.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import DependentInputsError, EnclosureWidthError, ZeroSumError
from .field import FieldElement, compare_real, scaled_box
from .mason import casoratian
from .poly import (
    Divisor,
    FactoredPoly,
    Polynomial,
    multi_gcd,
    point_key,
    require_order,
    require_shift,
    shift_gcd_factor,
    shift_window_excess,
)
from .report import CheckReport, Hypothesis, Statement, chain_report


def divisor_of(f: FactoredPoly) -> Divisor:
    """Zero divisor of a polynomial given in product form: the one it holds."""
    return f.divisor


def shift_divisor(D: Divisor, kappa) -> Divisor:
    """Divisor of f(z + kappa): the support moves by -kappa."""
    return D.translate(-D.tower._coerce(kappa))


def _shift_chain(D: Divisor, kappa: FieldElement, n: int) -> list[list]:
    """The n copies of D's items at w - i*kappa, i < n, each copy moved by
    -kappa from the one before."""
    chain = [list(D.items())]
    for _ in range(1, n):
        chain.append([(w - kappa, c) for w, c in chain[-1]])
    return chain


def factorial_divisor(D: Divisor, kappa, n: int) -> Divisor:
    """Divisor of the order-n factorial power built from D's function: D's
    points, then each copy moved by -kappa from the one before."""
    kappa = require_shift(D.tower, kappa, "factorial divisor")
    require_order(n, 1, "factorial order")
    return Divisor(D.tower, itertools.chain.from_iterable(_shift_chain(D, kappa, n)))


def _truncated_weights(D: Divisor, kappa, q: int) -> list[tuple[FieldElement, int]]:
    """ord_w - min over shifts w, w+kappa, ..., w+q*kappa, per support point
    where it is positive: the m = q + 1 point window of Divisor.window_excess."""
    kappa = require_shift(D.tower, kappa, "truncated counting")
    require_order(q, 1, "truncation order")
    return D.window_excess(kappa, q + 1)


class CountingValue(NamedTuple):
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


# Every count runs at one precision: boxes of irrational |w|^2 at most
# 2**-_BOX_BITS wide, logarithms at the scale 2**-_LOG_PREC, far below the
# float rounding of the reported values.
_BOX_BITS = 64
_LOG_PREC = 80


class _Table:
    """The points of one call placed among its radii.

    The radii are converted to Fractions, deduplicated and sorted; an empty
    list or a negative radius raises ValueError.  sweep asks for positive
    radii on top of that.

    place(w) gives (|w|^2, k, tie): radii[k] is the first radius whose
    closed disc holds w (len(radii) when none does), and tie says that w lies
    on that circle, so its open discs start one radius later.  Each distinct
    point w != 0 is placed once, the first time any sweep asks for it, by a
    binary search against the squared radii over the box of |w|^2.  Each
    distinct |w|^2 is boxed once (_box): the value itself when it is
    rational, a zero-width box that also decides ties, and otherwise
    field.scaled_box at the width _BOX_BITS.  A radius strictly outside the
    box is decided by two integer products; only a radius inside it, or a
    value the kernel cannot box within its cap, goes to the exact norm
    recursion (compare_real).  An irrational |w|^2 never equals a rational
    r^2, so no tie is lost.  Each distinct |w|^2, and each radius, is given
    one logarithm enclosure: an integer pair (lo, hi) at the scale
    2**-_LOG_PREC (_log_fixed), the one of |w|^2 read off its box.  Every
    count and sweep of the call reads the same table.
    """

    __slots__ = ("radii", "_r_sq", "_places", "_boxes", "_logs", "_log_radii")

    def __init__(self, radii):
        radii = sorted({Fraction(r) for r in radii})
        if not radii:
            raise ValueError("need at least one radius")
        if radii[0] < 0:
            raise ValueError(f"radius must be non-negative, got {radii[0]}")
        self.radii = radii
        self._r_sq = [(r.numerator ** 2, r.denominator ** 2) for r in radii]
        self._places: dict = {}
        self._boxes: dict = {}
        self._logs: dict = {}
        self._log_radii = None

    def _box(self, abs_sq: FieldElement) -> tuple[int, int, int]:
        """(low, high, scale) with low <= |w|^2 * scale <= high, once per
        value: (n, n, d) for a rational n/d, and otherwise the real side of
        field.scaled_box at the width _BOX_BITS."""
        box = self._boxes.get(abs_sq)
        if box is None:
            if abs_sq.is_rational():
                x = abs_sq.as_fraction()
                box = x.numerator, x.numerator, x.denominator
            else:
                try:
                    (low, high, _, _), scale = scaled_box(abs_sq, _BOX_BITS)
                except EnclosureWidthError:
                    # Scale 0 encloses nothing: every radius goes to compare_real.
                    low, high, scale = -1, 1, 0
                box = low, high, scale
            self._boxes[abs_sq] = box
        return box

    def place(self, w: FieldElement) -> tuple:
        hit = self._places.get(w)
        if hit is None:
            abs_sq = w.abs_squared()
            low, high, scale = self._box(abs_sq)
            r_sq = self._r_sq
            lo, hi, tie = 0, len(r_sq) if w else 0, False
            while lo < hi:
                mid = (lo + hi) // 2
                a, b = r_sq[mid]
                x = a * scale
                if x < low * b:
                    side = 1
                elif x > high * b:
                    side = -1
                else:
                    side = 0 if low == high else compare_real(abs_sq, Fraction(a, b))
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
        """Enclosure of log|w|^2 at the scale 2**-_LOG_PREC, once per value.

        |w|^2 lies in [low, high] / scale, its box, with low > 0: while the
        low end is not positive the box is taken again at double the width
        bits (scaled_box raises past its cap).  log is increasing and
        log(high/low) <= high/low - 1, so one logarithm, of low/scale, and
        that rational bound enclose it; a rational |w|^2 has low = high.
        """
        enc = self._logs.get(abs_sq)
        if enc is None:
            low, high, scale = self._box(abs_sq)
            bits = _BOX_BITS
            while low <= 0:
                bits *= 2
                (low, high, _, _), scale = scaled_box(abs_sq, bits)
            lo, hi = _log_fixed(low, scale, _LOG_PREC)
            # hi + ceil((high - low)/low * 2**_LOG_PREC), in integers
            enc = self._logs[abs_sq] = (lo, hi - ((low - high) << _LOG_PREC) // low)
        return enc

    def sweep(self, weights) -> list[CountingValue]:
        """n(r) and the certified N(r) at each radius, for one weight list.

        The closed form

            2 N(r) = sum_{0<|w|<r} c_w (2 log r - log|w|^2) + 2 c_0 log r

        is a multiple of log r minus a prefix sum of per-point terms, so the
        sweep only adds up table entries: per-radius masses and log sums,
        accumulated over the radii.  Every entry is an integer pair at the
        scale 2**-_LOG_PREC, and a negative weight swaps the ends it multiplies,
        so the sums are exact and each radius ends with one pair (lo, hi)
        around 2 N(r).  N_value is its midpoint; the error is a little over
        its half width, plus 4e-16 |N_value| for the float roundings of the
        midpoint and of sums of rows.  A point on the circle |w| = r
        contributes exactly nothing, as log(r/|w|) = 0.
        """
        radii = self.radii
        if radii[0] <= 0:
            raise ValueError("integrated counting needs a positive radius")
        if self._log_radii is None:
            self._log_radii = [_log_fixed(r.numerator, r.denominator, _LOG_PREC) for r in radii]
        size = len(radii) + 1
        closed, mass, logs_lo, logs_hi = [0] * size, [0] * size, [0] * size, [0] * size
        for w, c in weights:
            abs_sq, k, tie = self.place(w)
            closed[k] += c
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
        scale = 1 << (_LOG_PREC + 2)  # (lo + hi) / scale is the midpoint of N(r)
        rows = zip(self._log_radii, itertools.accumulate(closed), mass, logs_lo, logs_hi)
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
    return _Table([r]).counts(D.items())[0]


def n_tilde_q(D: Divisor, kappa, q: int, r) -> int:
    """Shift-truncated count inside the closed disc of radius r."""
    return _Table([r]).counts(_truncated_weights(D, kappa, q))[0]


def N_integrated(D: Divisor, r) -> CountingValue:
    """n(r) together with the integrated count N(r) and its error bound."""
    return _Table([r]).sweep(D.items())[0]


def N_tilde_q_integrated(D: Divisor, kappa, q: int, r) -> CountingValue:
    """Truncated count and its integral; the step function jumps at each |w|."""
    return _Table([r]).sweep(_truncated_weights(D, kappa, q))[0]


def counting_table(
    D: Divisor, kappa, q: int, radii: Sequence
) -> list[tuple[Fraction, CountingValue, CountingValue]]:
    """(r, N_integrated, N_tilde_q_integrated) at each distinct radius, ascending.

    The plain and the truncated sweep read one table of D's points.
    """
    table = _Table(radii)
    plain = table.sweep(D.items())
    truncated = table.sweep(_truncated_weights(D, kappa, q))
    return list(zip(table.radii, plain, truncated))


def check_truncation(D: Divisor, kappa, q: int, n: int, radii: Sequence) -> CheckReport:
    """Truncated counting of an order-n factorial power vs the plain count of
    the order-q one.

    At every radius r the exact level asserts

        n_tilde_q(factorial_divisor(D, kappa, n), kappa, q, r)
            <= n_count(factorial_divisor(D, kappa, q), r),

    whose right side is sum_{i=0}^{q-1} n_count(shift_divisor(D, i*kappa), r),
    and the integrated level (N_holds) asserts the same shape as a float
    test on the rounded values, with their summed error bounds as slack.
    The integrated comparison is only asserted at radii >= 1: below that
    the origin term carries a negative log r weight and integrating the
    count-level inequality no longer preserves its direction, so those rows
    report values without a verdict.
    """
    table = _Table(radii)
    # One shift chain, of length max(n, q), carries both factorial divisors;
    # the checks and their messages are factorial_divisor's, in its order.
    kappa = require_shift(D.tower, kappa, "factorial divisor")
    require_order(n, 1, "factorial order")
    require_order(q, 1, "truncation order")
    chain = _shift_chain(D, kappa, max(n, q))
    fact = Divisor(D.tower, itertools.chain.from_iterable(chain[:n]))
    lhs_rows = table.sweep(fact.window_excess(kappa, q + 1))
    # The order-q divisor's weights, unmerged: a sweep only sums them.
    rhs_rows = table.sweep(itertools.chain.from_iterable(chain[:q]))

    per_radius = []
    for r, lhs, rhs in zip(table.radii, lhs_rows, rhs_rows):
        slack = lhs.error + rhs.error
        per_radius.append(
            {
                "r": str(r),
                "n_lhs": lhs.n_value,
                "n_rhs": rhs.n_value,
                "n_holds": lhs.n_value <= rhs.n_value,
                "N_lhs": lhs.N_value,
                "N_rhs": rhs.N_value,
                "N_error": slack,
                "N_holds": lhs.N_value <= rhs.N_value + slack if r >= 1 else None,
            }
        )

    hypotheses = (
        Hypothesis("parameters", True, f"q={q}, n={n}, {len(table.radii)} radii"),
    )
    return CheckReport(
        Statement.TRUNCATION,
        hypotheses,
        lhs=per_radius[-1]["n_lhs"],
        rhs=per_radius[-1]["n_rhs"],
        holds=all(row["n_holds"] and row["N_holds"] is not False for row in per_radius),
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
    top = 0
    for w in points:
        (_, high, _, _), scale = scaled_box(w.abs_squared(), 16)
        top = max(top, -(-high // scale))
    return Fraction(math.isqrt(top) + 1)


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
    kappa_el = require_shift(tower, kappa, "order inequality")
    # Given radii are checked before a failed hypothesis can end the check.
    given = None if radii is None else _Table(radii)

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
        ordered = sorted(candidates, key=point_key(candidates))

        # g_1 .. g_m answer from their root data, the dense sum g_{m+1} by
        # Horner, once per point: lhs_w and the shift windows ask again.
        ords = [g.ord_at for g in gs] + [functools.cache(total.ord_at)]

        violations = []
        point_rows = []
        for w in ordered:
            lhs_w = sum(order(w) for order in ords) - C.ord_at(w)
            rhs_w = sum(shift_window_excess(order, w, kappa_el, m) for order in ords)
            point_rows.append((w, max(lhs_w, 0), rhs_w))
            if lhs_w > 0 and lhs_w > rhs_w:
                violations.append({"point": str(w), "lhs": lhs_w, "rhs": rhs_w})

        # Each point placed once among the radii; the aggregates are prefix sums.
        table = given or _Table([1, 2, 5, 10, _cover_radius(ordered)])
        lhs_sums = table.counts((w, lhs_w) for w, lhs_w, _ in point_rows)
        rhs_sums = table.counts((w, rhs_w) for w, _, rhs_w in point_rows)
        per_radius = [
            {"r": str(r), "lhs": lhs_r, "rhs": rhs_r, "holds": lhs_r <= rhs_r}
            for r, lhs_r, rhs_r in zip(table.radii, lhs_sums, rhs_sums)
        ]
        return dict(
            lhs=lhs_sums[-1],
            rhs=rhs_sums[-1],
            holds=not violations and certificate and all(row["holds"] for row in per_radius),
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
