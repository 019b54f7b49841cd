"""Difference radicals: the gcd/root dual routes and their arithmetic laws."""

import random
from fractions import Fraction

import pytest

import naive_poly
from diffrad import (
    FactoredPoly,
    Polynomial,
    classical_radical,
    diff_radical,
    diff_radical_from_roots,
    diff_radical_m,
    gcd,
    n_tilde,
    n_tilde_sum_bound,
    parse_poly,
)
from diffrad.errors import ZeroPolynomialError, ZeroShiftError
from diffrad.generators import random_factored, random_kappa, random_poly


def _factored_product(f, g):
    return FactoredPoly(f.leading * g.leading, f.factors + g.factors)


def _tilde_radical(f, kappa):
    return diff_radical_from_roots(f, kappa, 2).radical


def _equality_pairs_coprime(p, q, kappa):
    """The two cross-shift radical pairs that decide additivity of n~."""
    p_up = naive_poly.shift_roots(p, -kappa)  # roots of p(z + kappa)
    q_up = naive_poly.shift_roots(q, -kappa)
    first = gcd(_tilde_radical(p, kappa), _tilde_radical(q_up, -kappa))
    second = gcd(_tilde_radical(p_up, -kappa), _tilde_radical(q, kappa))
    return first.degree == 0 and second.degree == 0


def test_shift_chain_example(tower):
    p = parse_poly("z^2*(z-1)*(z-2)^3", tower)
    res = diff_radical(p, 1)
    assert res.n_tilde == 4
    assert res.radical == parse_poly("z^4 - 6*z^3 + 12*z^2 - 8*z", tower)
    assert res.radical == FactoredPoly(tower.one, [(0, 1), (2, 3)]).expand()
    assert res.cofactor == FactoredPoly(tower.one, [(0, 1), (1, 1)]).expand()
    assert res.reconstruct() == p
    oracle = diff_radical_from_roots(
        FactoredPoly(tower.one, [(0, 2), (1, 1), (2, 3)]), 1
    )
    assert oracle.radical == res.radical and oracle.n_tilde == 4


def test_multiplicity_chain_counting(tower):
    # orders 2, 1, 3 at w, w+1, w+2 and nothing at w+3: the chain counts
    # 1, 0, 3 against the forward neighbor.
    w = tower.rational(Fraction(5, 2))
    f = FactoredPoly(tower.one, [(w, 2), (w + 1, 1), (w + 2, 3)])
    res = diff_radical_from_roots(f, 1)
    assert res.radical.ord_at(w) == 1
    assert res.radical.ord_at(w + 1) == 0
    assert res.radical.ord_at(w + 2) == 3
    assert res.n_tilde == 4
    assert diff_radical(f.expand(), 1).n_tilde == 4


def test_constant_poly_has_trivial_radical(tower):
    res = diff_radical(Polynomial(tower, (5,)), 1)
    assert res.n_tilde == 0
    assert res.radical == Polynomial(tower, (1,))
    assert res.reconstruct() == Polynomial(tower, (5,))


def test_reconstruction_identity_bulk(tower):
    rng = random.Random(61)
    for _ in range(200):
        k = random_kappa(rng, tower)
        p = random_poly(rng, tower, 8, k)
        res = diff_radical(p, k)
        assert res.reconstruct() == p
        assert p.degree == res.cofactor.degree + res.n_tilde
        assert res.radical.lead == 1 and res.cofactor.lead == 1


def test_route_equivalence_bulk(tower):
    rng = random.Random(62)
    for trial in range(80):
        k = random_kappa(rng, tower)
        f = random_factored(rng, tower, k)
        m = 2 + trial % 3
        via_gcd = diff_radical_m(f.expand(), k, m)
        via_roots = diff_radical_from_roots(f, k, m)
        assert via_gcd.radical == via_roots.radical
        assert via_gcd.cofactor == via_roots.cofactor
        assert via_gcd.n_tilde == via_roots.n_tilde


def test_classical_radical_squarefree(tower):
    p = parse_poly("z^2*(z-1)*(z-2)^3", tower)
    res = classical_radical(p)
    assert res.n_tilde == 3
    assert res.radical == FactoredPoly(tower.one, [(0, 1), (1, 1), (2, 1)]).expand()
    rng = random.Random(63)
    for _ in range(40):
        f = random_factored(rng, tower, tower.one)
        res = classical_radical(f.expand())
        assert res.n_tilde == len(f.factors)
        assert all(res.radical.ord_at(r) == 1 for r, _ in f.factors)


def test_property_degree_bound(tower):
    rng = random.Random(64)
    for _ in range(100):
        k = random_kappa(rng, tower)
        p = random_poly(rng, tower, 7, k)
        assert n_tilde(p, k) <= p.degree or p.is_constant()
        assert n_tilde(p, k) >= 0


def test_property_power_scaling(tower):
    rng = random.Random(65)
    for _ in range(60):
        k = random_kappa(rng, tower)
        f = random_factored(rng, tower, k, max_roots=2, max_mult=2)
        m = rng.randint(1, 3)
        powered = FactoredPoly(f.leading**m, [(r, mult * m) for r, mult in f.factors])
        assert diff_radical_from_roots(powered, k).n_tilde == m * diff_radical_from_roots(f, k).n_tilde


def test_property_subadditive_with_criterion(tower):
    rng = random.Random(66)
    seen_equal = seen_strict = 0
    for _ in range(150):
        k = random_kappa(rng, tower)
        p = random_factored(rng, tower, k, max_roots=2, max_mult=2)
        q = random_factored(rng, tower, k, max_roots=2, max_mult=2)
        joint = diff_radical_from_roots(_factored_product(p, q), k).n_tilde
        split = (
            diff_radical_from_roots(p, k).n_tilde
            + diff_radical_from_roots(q, k).n_tilde
        )
        assert joint <= split
        equality = joint == split
        assert equality == _equality_pairs_coprime(p, q, k)
        seen_equal += equality
        seen_strict += not equality
    assert seen_equal and seen_strict  # both branches exercised


def test_subadditivity_equality_constructed_cases(tower):
    one = tower.one
    # Shared root, yet additive: the cross-shift pairs stay coprime.
    p = FactoredPoly(one, [(0, 1)])
    assert _equality_pairs_coprime(p, p, one)
    joint = diff_radical_from_roots(_factored_product(p, p), one).n_tilde
    assert joint == 2 == 2 * diff_radical_from_roots(p, one).n_tilde

    # Disjoint roots one step apart: a drop of p meets a rise of q, the
    # count collapses and the matching radical pair shares the witness root.
    q = FactoredPoly(one, [(1, 1)])
    joint = diff_radical_from_roots(_factored_product(p, q), one).n_tilde
    assert joint == 1 < 2
    assert not _equality_pairs_coprime(p, q, one)
    # Mirror orientation trips the other pair of the criterion.
    assert not _equality_pairs_coprime(q, p, one)


def test_order_m_monotone_and_window(tower):
    rng = random.Random(67)
    for _ in range(60):
        k = random_kappa(rng, tower)
        f = random_factored(rng, tower, k)
        p = f.expand()
        assert n_tilde(p, k, 3) >= n_tilde(p, k, 2)
        assert n_tilde(p, k, 4) >= n_tilde(p, k, 3)
    # window wide enough swallows the whole chain
    chain = FactoredPoly(tower.one, [(0, 1), (1, 1), (2, 1)])
    assert diff_radical_from_roots(chain, 1, 2).n_tilde == 1
    assert diff_radical_from_roots(chain, 1, 4).n_tilde == 3
    assert diff_radical_m(chain.expand(), 1, 4).n_tilde == 3


def test_order_window_sum_bound(tower):
    f = FactoredPoly(tower.one, [(0, 1), (1, 1)])
    assert n_tilde_sum_bound(f, tower.one, 3) == (2, 3)
    rng = random.Random(68)
    for _ in range(60):
        k = random_kappa(rng, tower)
        g = random_factored(rng, tower, k)
        lhs, rhs = n_tilde_sum_bound(g, k, rng.randint(2, 4))
        assert lhs <= rhs


def test_radical_rejects_degenerate_inputs(tower):
    z = Polynomial.variable(tower)
    with pytest.raises(ZeroPolynomialError):
        diff_radical(Polynomial.zero(tower), 1)
    with pytest.raises(ZeroShiftError):
        diff_radical(z, 0)
    with pytest.raises(ValueError):
        diff_radical_m(z, 1, 1)
    with pytest.raises(ValueError):
        diff_radical_from_roots(FactoredPoly(tower.one, [(0, 1)]), 1, 0)


def test_radical_reuses_the_proof_quotient(tower, monkeypatch):
    """diff_radical_m divides only inside the proof of its cofactor: m exact
    divisions for a nontrivial cofactor, none when the cofactor is 1."""
    divisions = []
    original = Polynomial.__divmod__

    def counted(p, d):
        divisions.append(d)
        return original(p, d)

    kappa = tower.sqrt_gen(0)
    lattice = FactoredPoly(tower.rational(3), [(Fraction(1, 2) + kappa * j, 2) for j in range(4)])
    coprime = FactoredPoly(-tower.one, [(0, 1), (Fraction(1, 3), 2), (kappa / 2, 1)])
    monkeypatch.setattr(Polynomial, "__divmod__", counted)
    for f, m in ((lattice, 2), (lattice, 3), (coprime, 2), (coprime, 4)):
        p = f.expand()
        del divisions[:]
        res = diff_radical_m(p, kappa, m)
        expected = diff_radical_from_roots(f, kappa, m)
        assert (res.radical, res.cofactor) == (expected.radical, expected.cofactor)
        assert len(divisions) == (0 if res.cofactor == 1 else m)
        if res.cofactor == 1:
            assert res.radical == p.monic()
