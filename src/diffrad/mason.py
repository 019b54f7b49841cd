"""Mason-type degree bounds along a shift lattice, checked exactly.

For coprime a + b = c, not all constant, the maximum degree is at most
n~(a) + n~(b) + n~(c) - 1 with n~ the order-2 difference radical degree.
For a_1 + ... + a_m = a_{m+1} with the first m linearly independent over the
constants, order-m radical degrees bound the maximum degree with slack
m(m-1)/2.  The Casoratian (shift analogue of the Wronskian) powers the
multi-term case; its determinant is computed fraction-free.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .poly import Polynomial, gcd, multi_gcd, require_shift
from .radical import diff_radical_m
from .report import CheckReport, Hypothesis, Statement, chain_report


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

    So Bareiss runs on those rows, row i built as Delta of row i - 1, bottom
    row first, and reversing m rows flips the sign m(m-1)/2 times.  Row i
    has degree at most d_j - i in column j, so the bottom row, of the lowest
    degrees, gives the first pivot.  Its entry Delta^(m-1) p_j vanishes when
    d_j < m - 1; the pivot search steps past such zeros.
    """
    if not ps:
        raise ValueError("casoratian of an empty list")
    kappa = require_shift(ps[0].tower, kappa, "casoratian")
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
