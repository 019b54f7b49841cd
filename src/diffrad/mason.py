"""Mason-type degree bounds along a shift lattice, checked exactly.

For coprime a + b = c, not all constant, the maximum degree is at most
n~(a) + n~(b) + n~(c) - 1 with n~ the order-2 difference radical degree.
For a_1 + ... + a_m = a_{m+1} with the first m linearly independent over the
constants, order-m radical degrees bound the maximum degree with slack
m(m-1)/2.  The Casoratian (shift analogue of the Wronskian) powers the
multi-term case; its determinant is computed without division: one integer
determinant at a single point z = 2**B for up to KRONECKER_MAX_M rows, and
Bareiss above.
"""

from __future__ import annotations

import math
from math import lcm
from typing import Optional, Sequence

from .field import FieldElement, _product_into
from .poly import (
    Polynomial,
    digit_limbs,
    gcd,
    multi_gcd,
    require_shift,
    unpack_columns,
)
from .radical import diff_radical_m
from .report import CheckReport, Hypothesis, Statement, chain_report


# Largest m whose Casoratian is one integer determinant at z = 2**B; above
# it the Delta rows and Bareiss (see casoratian for the measurement).
KRONECKER_MAX_M = 9


def casoratian(ps: Sequence[Polynomial], kappa) -> Polynomial:
    """det of the m x m matrix with entry (i, j) = p_j(z + i*kappa).

    For polynomials and kappa != 0 it vanishes exactly when p_1, ..., p_m
    are linearly dependent over the constants, so the checkers read
    independence off it.  Dependent columns give det 0.  Conversely, row
    operations turn the rows of shifts into the differences
    Delta^i p_j = sum_k (-1)^(i-k) binom(i, k) p_j(z + k*kappa) with the
    same determinant, and an invertible constant change of the columns,
    which scales it by a nonzero constant, gives independent p_j distinct
    degrees d_j with leading coefficients l_j.  Delta^i p_j has degree at
    most d_j - i, with coefficient (d_j)_i kappa^i l_j at z^(d_j - i), where
    (d)_i = d (d-1) ... (d-i+1) is the falling factorial (0 for i > d).
    Every term of the Leibniz expansion then has degree at most
    sum_j d_j - m(m-1)/2, and the coefficient there is
    kappa^(m(m-1)/2) prod_j l_j det[(d_j)_i].  As (d)_i is monic of degree
    i in d, row operations reduce det[(d_j)_i] to the Vandermonde
    det[d_j^i] = prod_{j<k} (d_k - d_j), nonzero for distinct d_j.

    Size rule.  For m <= KRONECKER_MAX_M the determinant is one integer
    determinant at z = X = 2**B (`_casoratian_kronecker`, which gives the
    method and the bound that proves it); above that, Bareiss on the Delta
    rows.  The minors of the Kronecker route cost m * 2**(m-1) products,
    Bareiss O(m**3) polynomial products with exact divisions.  CPU seconds
    for p_j = (z - j)**d on the default tower, kappa = 1, on a shared 2-core
    x86 box (Python 3.11), the range of three runs:

        m x d          8 x 12       9 x 12       10 x 12      8 x 50
        Bareiss        0.26-0.45    0.32-0.45    0.36-0.40    17.9-19.9
        Kronecker      0.07-0.15    0.23-0.41    0.65-1.06    7.4-9.1

    A scalar Bareiss at 2**B does not replace the polynomial one above the
    rule: it took 1.03 against 0.35 s at 10 x 12 and 14.5 against 0.11 s at
    14 x 13.

    Bareiss runs on the rows Delta^i p_j, row i built as Delta of row i - 1,
    bottom row first, and reversing m rows flips the sign m(m-1)/2 times.
    Row i has degree at most d_j - i in column j, so the bottom row, of the
    lowest degrees, gives the first pivot.  Its entry Delta^(m-1) p_j
    vanishes when d_j < m - 1; the pivot search steps past such zeros.

    Every p_j must be of ps[0]'s tower; another raises ValueError, as in
    every sum and product (the Kronecker route reads raw coordinates).
    """
    if not ps:
        raise ValueError("casoratian of an empty list")
    tower = ps[0].tower
    if any(p.tower != tower for p in ps):
        raise ValueError("casoratian of polynomials of another tower; lift_to moves them")
    kappa = require_shift(tower, kappa, "casoratian")
    if any(p.is_zero() for p in ps):
        return Polynomial.zero(tower)
    if len(ps) <= KRONECKER_MAX_M:
        return _casoratian_kronecker(ps, kappa)
    rows = [list(ps)]
    for _ in range(1, len(ps)):
        rows.append([q.delta(kappa) for q in rows[-1]])
    det = _det_bareiss(rows[::-1])
    return -det if len(ps) * (len(ps) - 1) // 2 % 2 else det


def _det_bareiss(mat: list[list[Polynomial]]) -> Polynomial:
    """Fraction-free determinant; every division is exact in the poly ring."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = None  # the last pivot; 1 in round 0, which therefore divides by nothing
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if not m[r][k].is_zero()), None)
        if pivot_row is None:
            return Polynomial.zero(m[0][0].tower)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                entry = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = entry if prev is None else entry.divide_exact(prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def _casoratian_kronecker(ps: Sequence[Polynomial], kappa: FieldElement) -> Polynomial:
    """The Casoratian of nonzero ps as one determinant of integer vectors at z = X = 2**B.

    Kronecker substitution (von zur Gathen and Gerhard, Modern Computer
    Algebra, 8.4), as in `FactoredPoly.expand`.  Write kappa = K / d_kappa,
    s = d_kappa * tden and K_i = i*K, and clear p_j to integer numerators
    c_k over one denominator D_j, with n_j = deg p_j.  Horner

        acc <- acc * (s*X + K_i) + c_k * s**(n_j - k),   k = n_j - 1, ..., 0,

    from acc = c_(n_j), where K_i * acc is the basis-table product
    (`field._product_into`; its denominator is tden), gives integer
    coordinate vectors A_ij with p_j(X + i*kappa) = A_ij / (D_j * s**n_j):
    no gcd and no FieldElement, and multiplying by X is a shift.  Each
    column keeps one denominator, so the determinant of the A_ij, by Laplace
    expansion down the rows with the minors of the lower rows shared by
    column set (`_det_minors`), is L * C(X) for
    L = tden**(m-1) * prod_j D_j * s**n_j: each of its products of m
    entries takes m - 1 table products.  As X is a variable
    throughout, coordinate t of it is P_t(X) for integer polynomials P_t
    with C = sum_t P_t e_t / L, and P_t has degree at most sum_j n_j.

    The bound is the proof.  Let ||.|| be the sum of the absolute values of
    all integers of a vector of integer polynomials, C_u the largest sum of
    |c| over one product e_u * e_t (`FieldTower._table_norms`), and cmax the
    largest C_u.  A table product obeys ||x*y|| <= cmax * ||x|| * ||y||.  A
    Horner step multiplies ||acc|| by at most g = s + (m-1) * sum_u |K_u| C_u,
    as in `expand`, and adds ||c_k|| * s**(n_j - k), with s <= g; so
    ||A_ij|| <= ||D_j p_j|| * g**n_j.  Each of the m! Leibniz terms is a
    product of m entries, one per column, so every integer of every P_t is
    at most

        H = m! * cmax**(m-1) * prod_j ||D_j p_j|| * g**n_j,

    and B is the bit length of H plus a sign bit, in whole 64-bit words
    (`digit_limbs`).  Only the final determinant is unpacked, so only its
    digits need the bound; the products on the way are exact integers.  For
    m = 1 and a rational c, C = c*z**d and H = |c| * s**d is the digit
    itself: the bound is tight there.
    """
    tower = kappa.tower
    table, tden, norms = tower._table, tower._tden, tower._table_norms
    m = len(ps)
    s = kappa._den * tden
    grow = s + (m - 1) * sum([abs(k) * norms[u] for u, k in enumerate(kappa._num)])
    bound = math.factorial(m) * max(norms) ** (m - 1)
    den = tden ** (m - 1)
    columns = []
    for p in ps:
        d = lcm(*[c._den for c in p.coeffs])
        coeffs = [[x * (d // c._den) for x in c._num] for c in p.coeffs]
        n = len(coeffs) - 1
        bound *= sum([abs(x) for c in coeffs for x in c]) * grow**n
        den *= d * s**n
        columns.append(coeffs)
    limbs = digit_limbs(bound)
    shift = limbs << 6
    rows = [[_horner_at_x(c, i, kappa._num, table, s, shift) for c in columns] for i in range(m)]
    det = _det_minors(rows, table)
    return unpack_columns(tower, det, sum([len(c) - 1 for c in columns]) + 1, limbs, den)


def _horner_at_x(coeffs: list, i: int, knum: tuple, table, s: int, shift: int) -> list:
    """The integer vector (D * s**n) * p(X + i*kappa), X = 2**shift, from the
    numerator vectors of p's coefficients and kappa's numerators knum (see
    `_casoratian_kronecker`)."""
    acc = list(coeffs[-1])
    power = 1
    for c in reversed(coeffs[:-1]):
        power *= s
        out = [(a * s) << shift for a in acc]
        if i:
            _product_into(out, knum, acc, table, i)
        for t, x in enumerate(c):
            if x:
                out[t] += x * power
        acc = out
    return acc


def _det_minors(rows: list, table) -> list:
    """det of a square matrix of integer coordinate vectors, with table
    products (`field._product_into`).

    Laplace expansion down the rows: the minor on the last k rows and the
    column set S (a bit mask) is the sum over j in S of
    (-1)**(members of S below j) * rows[m-k][j] * minor(S - {j}), each minor
    computed once.  No division and no pivot search; m * 2**(m-1) products.
    """
    dim = len(table)
    minors = {1 << j: a for j, a in enumerate(rows[-1]) if any(a)}
    for row in reversed(rows[:-1]):
        grown: dict = {}
        for mask, minor in minors.items():
            for j, a in enumerate(row):
                bit = 1 << j
                if mask & bit:
                    continue
                acc = grown.setdefault(mask | bit, [0] * dim)
                sign = -1 if bin(mask & (bit - 1)).count("1") & 1 else 1
                _product_into(acc, a, minor, table, sign)
        minors = {mask: acc for mask, acc in grown.items() if any(acc)}
    return minors.get((1 << len(rows)) - 1) or [0] * dim


def linearly_independent(ps: Sequence[Polynomial]) -> bool:
    """Linear independence over the constants: a nonzero Casoratian at
    shift 1 (casoratian proves the two equivalent).  An empty list is
    independent; a list with a zero polynomial is not."""
    return not ps or not casoratian(ps, 1).is_zero()


def pairwise_coprime(ps: Sequence[Polynomial]) -> tuple[bool, Optional[Polynomial]]:
    """(True, None) or (False, first nontrivial common factor found)."""
    for a in range(len(ps)):
        for b in range(a + 1, len(ps)):
            g = gcd(ps[a], ps[b])
            if g.degree != 0:
                return False, g
    return True, None


def setwise_coprime(ps: Sequence[Polynomial]) -> bool:
    return multi_gcd(ps).degree == 0


def _coprime_hypothesis(ps: Sequence[Polynomial], mode: str) -> Hypothesis:
    if mode == "pairwise":
        ok, witness = pairwise_coprime(ps)
        detail = "no two share a factor" if ok else f"common factor {witness}"
    elif mode == "setwise":
        common = multi_gcd(ps)
        ok = common.degree == 0
        detail = "no factor common to all" if ok else f"common factor {common}"
    else:
        raise ValueError(f"unknown coprimality mode {mode!r}")
    return Hypothesis(f"coprime ({mode})", ok, detail)


def check_mason_triple(a: Polynomial, b: Polynomial, c: Polynomial, kappa) -> CheckReport:
    """max deg <= n~(a) + n~(b) + n~(c) - 1 for coprime a + b = c."""
    kappa = require_shift(a.tower, kappa, "check")
    ps = [a, b, c]

    def chain():
        nonzero = all(not p.is_zero() for p in ps)
        yield Hypothesis(
            "nonzero", nonzero, "all of a, b, c nonzero" if nonzero else "a zero input"
        )
        sum_ok = (a + b) == c
        yield Hypothesis("sum", sum_ok, "a + b = c" if sum_ok else "a + b differs from c")
        yield _coprime_hypothesis(ps, "pairwise")
        nonconst = any(p.degree > 0 for p in ps)
        yield Hypothesis(
            "nonconstant", nonconst, "not all constant" if nonconst else "all constant"
        )

        results = [diff_radical_m(p, kappa, 2) for p in ps]
        tildes = [r.n_tilde for r in results]
        lhs = max(int(p.degree) for p in ps)
        rhs = sum(tildes) - 1
        return dict(
            lhs=lhs,
            rhs=rhs,
            holds=lhs <= rhs,
            artifacts={
                "n_tilde": tildes,
                "radicals": [str(r.radical) for r in results],
                "sharp": lhs == rhs,
            },
        )

    return chain_report(Statement.MASON_TRIPLE, chain())


def check_mason_multi(
    ps: Sequence[Polynomial], kappa, coprimality: str = "setwise"
) -> CheckReport:
    """Order-m radical bound for a_1 + ... + a_m = a_{m+1}.

    Also computes the divisibility certificate q | C, where q is the product
    of the per-input shift-gcd factors and C the Casoratian of the first m.
    """
    if len(ps) < 3:
        raise ValueError("need at least 3 polynomials (m >= 2 summands plus the sum)")
    m = len(ps) - 1
    tower = ps[0].tower
    kappa = require_shift(tower, kappa, "check")

    def chain():
        nonzero = all(not p.is_zero() for p in ps)
        yield Hypothesis(
            "nonzero", nonzero, "all inputs nonzero" if nonzero else "a zero input"
        )
        sum_ok = sum(ps[:-1], Polynomial.zero(tower)) == ps[-1]
        yield Hypothesis(
            "sum",
            sum_ok,
            "a_1 + ... + a_m = a_{m+1}" if sum_ok else "sum differs from the last entry",
        )
        yield _coprime_hypothesis(ps, coprimality)
        cas = casoratian(ps[:-1], kappa)
        indep = not cas.is_zero()
        yield Hypothesis(
            "independent",
            indep,
            "first m linearly independent over the constants"
            if indep
            else "first m linearly dependent",
        )

        results = [diff_radical_m(p, kappa, m) for p in ps]
        tildes = [r.n_tilde for r in results]
        lhs = max(int(p.degree) for p in ps)
        rhs = sum(tildes) - m * (m - 1) // 2

        # Each cofactor is already the monic gcd of the m shifts of its input.
        q = math.prod((r.cofactor for r in results), start=Polynomial(tower, (1,)))
        divisible = (cas % q).is_zero()
        return dict(
            lhs=lhs,
            rhs=rhs,
            holds=lhs <= rhs,
            artifacts={
                "m": m,
                "n_tilde": tildes,
                "coprimality": coprimality,
                "casoratian_degree": int(cas.degree),
                "shift_gcd_product_degree": int(q.degree),
                "casoratian_divisible_by_gcd_product": divisible,
                "sharp": lhs == rhs,
            },
        )

    return chain_report(Statement.MASON_MULTI, chain())
