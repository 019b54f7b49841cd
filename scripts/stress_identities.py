#!/usr/bin/env python3
"""Randomized stress runner for the exact identities behind the checkers.

Each suite draws fresh random inputs and asserts an identity that must hold
on every single trial: the radical product decomposition, the counting
properties, the degree bounds for sum identities, oracle agreement between
the gcd and root routes, factorial power bounds, truncated counting
domination, the pointwise order inequality, and the print/parse round trip.

    python scripts/stress_identities.py --trials 200 --seed 7
    python scripts/stress_identities.py --suites lemma,oracle --max-deg 15
"""

import argparse
import random
import sys
import time

from diffrad import (
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
from diffrad.generators import (
    random_divisor,
    random_factored,
    random_fermat_instance,
    random_fraction,
    random_kappa,
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
        f = random_factored(rng, tower, kappa)
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


def suite_roundtrip(rng, tower, trials, max_deg):
    def element():
        # Any subset of the 2^depth basis coordinates, products of roots included.
        return tower.element(
            [random_fraction(rng, 9, 4) if rng.random() < 0.6 else 0 for _ in range(tower.dim)]
        )

    for _ in range(trials):
        p = Polynomial(tower, [element() for _ in range(rng.randint(0, max_deg))])
        assert parse_poly(print_poly(p), tower) == p, print_poly(p)
        f = random_factored(rng, tower, random_kappa(rng, tower))
        assert parse_factored(print_factored(f), tower) == f, print_factored(f)


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
