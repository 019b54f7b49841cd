#!/usr/bin/env python3
"""Randomized stress runner for the exact identities behind the checkers.

Each suite draws fresh random inputs and asserts an identity that must hold
on every single trial: the radical product decomposition, the counting
properties, the degree bounds for sum identities, oracle agreement between
the gcd and root routes, factorial power bounds, truncated counting
domination, the pointwise order inequality, the placement of counting
points among radii against exact comparisons, the print/parse round trip,
gcds over a deep tower whose suitable primes are rare, and difference
radicals of subfield input over that tower.

    python scripts/stress_identities.py --trials 200 --seed 7
    python scripts/stress_identities.py --suites lemma,oracle --max-deg 15
"""

import argparse
import random
import sys
import time
from fractions import Fraction
from math import isqrt

from diffrad import (
    FactoredPoly,
    FieldTower,
    Form,
    N_integrated,
    N_tilde_q_integrated,
    Polynomial,
    default_tower,
    check_fermat_theorem,
    check_mason_multi,
    check_mason_triple,
    check_ord_inequality,
    check_truncation,
    compare_real,
    diff_radical,
    diff_radical_from_roots,
    diff_radical_m,
    factorial_divisor,
    gcd,
    n_count,
    n_tilde,
    n_tilde_q,
    parse_factored,
    parse_poly,
    print_factored,
    print_poly,
    shift_divisor,
)
from diffrad import divisor
from diffrad.generators import (
    random_divisor,
    random_element,
    random_factored,
    random_fermat_instance,
    random_fraction,
    random_kappa,
    random_lattice_roots,
    random_mason_triple,
    random_mason_tuple,
    random_ord_inputs,
    random_poly,
)


def suite_lemma(rng, tower, trials, max_deg):
    for _ in range(trials):
        kappa = random_kappa(rng, tower)
        p = random_poly(rng, tower, max_deg, kappa)
        res = diff_radical(p, kappa)
        assert res.reconstruct() == p
        if p.degree > 0:
            assert res.cofactor == gcd(p, p.delta(kappa))
        assert p.degree == res.cofactor.degree + res.n_tilde


def suite_counts(rng, tower, trials, max_deg):
    deg = min(max_deg, 4)
    for _ in range(trials):
        kappa = random_kappa(rng, tower)
        p = random_poly(rng, tower, deg, kappa)
        q = random_poly(rng, tower, deg, kappa)
        np_, nq = n_tilde(p, kappa), n_tilde(q, kappa)
        assert 0 <= np_ <= p.degree
        assert n_tilde(p * p, kappa) == 2 * np_
        assert n_tilde(p * q, kappa) <= np_ + nq


def suite_triples(rng, tower, trials, max_deg):
    for _ in range(trials):
        kappa = random_kappa(rng, tower)
        a, b, c = random_mason_triple(rng, tower, kappa)
        report = check_mason_triple(a, b, c, kappa)
        assert report.hypotheses_ok and report.holds


def suite_multi(rng, tower, trials, max_deg):
    for trial in range(trials):
        kappa = random_kappa(rng, tower)
        ps = random_mason_tuple(rng, tower, kappa, 2 + trial % 3)
        report = check_mason_multi(list(ps), kappa)
        assert report.hypotheses_ok and report.holds
        assert report.artifacts["casoratian_divisible_by_gcd_product"]


def suite_oracle(rng, tower, trials, max_deg):
    for trial in range(trials):
        kappa = random_kappa(rng, tower)
        f = random_factored(rng, tower, kappa, max_roots=max(1, max_deg // 3))
        m = 2 + trial % 3
        via_gcd = diff_radical_m(f.expand(), kappa, m)
        via_roots = diff_radical_from_roots(f, kappa, m)
        assert via_gcd.radical == via_roots.radical
        assert via_gcd.n_tilde == via_roots.n_tilde


def suite_fermat(rng, tower, trials, max_deg):
    plans = [
        (Form.XYZ, 2, 1),
        (Form.XYZ, 2, 2),
        (Form.SUM_FACTORIAL, 2, 2),
        (Form.SUM_FACTORIAL, 3, 1),
        (Form.SUM_ONE, 2, 1),
        (Form.SUM_ONE, 3, 1),
    ]
    for trial in range(trials):
        form, m, n = plans[trial % len(plans)]
        inst = random_fermat_instance(rng, tower, form, m, n)
        report = check_fermat_theorem(inst)
        assert report.hypotheses_ok and report.holds


def suite_divisor(rng, tower, trials, max_deg):
    radii = [1, 2, 5, 10]
    for _ in range(trials):
        kappa = random_kappa(rng, tower)
        D = random_divisor(rng, tower, kappa)
        q, n = rng.randint(1, 3), rng.randint(1, 3)
        report = check_truncation(D, kappa, q, n, radii)
        assert report.holds
        # every row against one-radius calls on the divisors themselves
        fact = factorial_divisor(D, kappa, n)
        shifted = [shift_divisor(D, kappa * i) for i in range(q)]
        for r, row in zip(radii, report.artifacts["per_radius"]):
            assert row["N_error"] <= 1e-9
            assert row["n_lhs"] == n_tilde_q(fact, kappa, q, r)
            assert row["n_rhs"] == sum(n_count(S, r) for S in shifted)
            lhs = N_tilde_q_integrated(fact, kappa, q, r)
            rhs = [N_integrated(S, r) for S in shifted]
            rhs_N = sum(cv.N_value for cv in rhs)
            gap = abs(row["N_lhs"] - lhs.N_value) + abs(row["N_rhs"] - rhs_N)
            assert gap <= row["N_error"] + lhs.error + sum(cv.error for cv in rhs)


def suite_ord(rng, tower, trials, max_deg):
    for trial in range(trials):
        kappa = random_kappa(rng, tower)
        gs = random_ord_inputs(rng, tower, kappa, 2 + trial % 2)
        report = check_ord_inequality(gs, kappa)
        assert report.hypotheses_ok and report.holds
        assert not report.artifacts["violations"]


def _convergents(x: Fraction, count: int) -> list[Fraction]:
    """The first `count` continued-fraction convergents of x (fewer when x's
    expansion ends sooner; the last is then x itself)."""
    out, (h0, h1), (k0, k1) = [], (0, 1), (1, 0)
    while len(out) < count:
        a = x.numerator // x.denominator
        (h0, h1), (k0, k1) = (h1, a * h1 + h0), (k1, a * k1 + k0)
        out.append(Fraction(h1, k1))
        if x == a:
            break
        x = 1 / (x - a)
    return out


def _oracle_place(w, radii):
    """(k, tie) for sorted distinct radii by exact comparisons alone; the
    origin goes to the first disc and never onto a circle."""
    if not w:
        return 0, False
    abs_sq = w.abs_squared()
    for k, r in enumerate(radii):
        side = compare_real(abs_sq, r * r)
        if side <= 0:
            return k, side == 0
    return len(radii), False


def suite_placement(rng, tower, trials, max_deg):
    # Radii are convergents of |w| for the drawn points: shallow ones lie far
    # from every circle, deep ones inside the table's enclosure of |w|^2, and
    # a rational |w| is reached exactly, so every branch of _Table.place runs.
    # The deepest convergent is the radius nearest |w|, which a binary search
    # always compares; for an irrational |w|^2 it needs the exact fallback.
    compare, fallbacks, irrational = divisor.compare_real, [], False

    def counted(a, b):
        fallbacks.append(a)
        return compare(a, b)

    divisor.compare_real = counted
    try:
        for _ in range(trials):
            kappa = random_kappa(rng, tower)
            points = random_lattice_roots(rng, tower, kappa, rng.randint(1, 4))
            radii = [Fraction(rng.randint(1, 12), rng.randint(1, 4))]
            for w in points:
                # |w| to within 2**-199: the floor of the root of a lower bound
                low = w.abs_squared().embed(200).re_lo
                root = Fraction(isqrt((low.numerator << 400) // low.denominator), 1 << 200)
                convergents = _convergents(root, 40)
                radii += [convergents[-1]] + rng.sample(convergents, min(2, len(convergents)))
                irrational |= not w.abs_squared().is_rational()
            table = divisor._Table(radii)
            for w in points + [-w for w in points]:
                assert table.place(w)[1:] == _oracle_place(w, table.radii), (w, radii)
    finally:
        divisor.compare_real = compare
    assert fallbacks or not irrational, "no radius fell inside an enclosure"


def suite_roundtrip(rng, tower, trials, max_deg):
    # The given tower and the depth-5 one that `--adjoin 5 --adjoin 7` builds
    # on it, so that products of up to five roots are printed and parsed.
    deep = tower.adjoin_sqrt(5).adjoin_sqrt(7)

    def element(t):
        # Any subset of the 2^depth basis coordinates, products of roots included.
        return t.element(
            [random_fraction(rng, 9, 4) if rng.random() < 0.6 else 0 for _ in range(t.dim)]
        )

    for _ in range(trials):
        for t in (tower, deep):
            p = Polynomial(t, [element(t) for _ in range(rng.randint(0, max_deg))])
            assert parse_poly(print_poly(p), t) == p, print_poly(p)
            f = random_factored(rng, t, random_kappa(rng, t))
            assert parse_factored(print_factored(f), t) == f, print_factored(f)


def _deep_tower():
    """Q(i, sqrt(17), sqrt(19), sqrt(23), sqrt(29)), whose suitable primes are rare."""
    deep = FieldTower.rationals().adjoin_sqrt(-1)
    for d in (17, 19, 23, 29):
        deep = deep.adjoin_sqrt(d)
    return deep


def suite_deep(rng, tower, trials, max_deg):
    # c has degree 12 and a dense leading coefficient, f and g disjoint
    # rational roots, so the gcd of c*f and c*g is monic c, proved after
    # however many primes it takes.
    deep = _deep_tower()
    for _ in range(trials):
        lead = deep.element([random_fraction(rng, 9, 4) or 1 for _ in range(deep.dim)])
        c = Polynomial(deep, [random_element(rng, deep, 4, 0.8) for _ in range(12)] + [lead])
        roots = rng.sample(range(-30, 31), 9)
        f = FactoredPoly(deep.one, [(r, 1) for r in roots[:4]]).expand()
        g = FactoredPoly(deep.rational(-3), [(r, 1) for r in roots[4:]]).expand()
        assert gcd(c * f, c * g) == c.monic()


def suite_subfield(rng, tower, trials, max_deg):
    # Roots in Q(i) on two kappa-lattices, kappa in Q or iQ, over the deep
    # tower: its 32 sign branches give at most 2 distinct images, so the gcd
    # route runs a chain per distinct image and must still agree with the
    # root route.
    deep = _deep_tower()
    sub = FieldTower.rationals().adjoin_sqrt(-1)
    for trial in range(trials):
        kappa = random_kappa(rng, sub)
        bases = [random_element(rng, sub, 4, 0.5) for _ in range(2)]
        entries = [
            ((rng.choice(bases) + kappa * rng.randint(0, 2)).lift_to(deep), rng.randint(1, 3))
            for _ in range(rng.randint(3, 7))
        ]
        f = FactoredPoly(deep.rational(random_fraction(rng) or 1), entries)
        kappa = kappa.lift_to(deep)
        m = 2 + trial % 3
        via_gcd = diff_radical_m(f.expand(), kappa, m)
        via_roots = diff_radical_from_roots(f, kappa, m)
        assert via_gcd.radical == via_roots.radical, print_factored(f)
        assert via_gcd.cofactor == via_roots.cofactor, print_factored(f)


SUITES = {
    "lemma": suite_lemma,
    "counts": suite_counts,
    "triples": suite_triples,
    "multi": suite_multi,
    "oracle": suite_oracle,
    "fermat": suite_fermat,
    "divisor": suite_divisor,
    "ord": suite_ord,
    "roundtrip": suite_roundtrip,
    "placement": suite_placement,
    "deep": suite_deep,
    "subfield": suite_subfield,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--trials", type=int, default=100, help="trials per suite")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--max-deg", type=int, default=10, help="degree cap")
    parser.add_argument(
        "--suites",
        default="all",
        help="comma-separated subset of: " + ", ".join(SUITES),
    )
    args = parser.parse_args(argv)

    names = list(SUITES) if args.suites == "all" else args.suites.split(",")
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        parser.error(f"unknown suites: {', '.join(unknown)}")

    tower = default_tower()
    failures = 0
    for offset, name in enumerate(names):
        rng = random.Random(args.seed + offset)
        t0 = time.perf_counter()
        try:
            SUITES[name](rng, tower, args.trials, args.max_deg)
        except AssertionError as exc:
            failures += 1
            print(f"{name:<9} FAIL after {time.perf_counter() - t0:.2f}s: {exc}")
            continue
        print(f"{name:<9} ok  {args.trials} trials  {time.perf_counter() - t0:.2f}s")
    if failures:
        print(f"{failures}/{len(names)} suites failed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
