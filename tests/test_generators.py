"""Contracts of the seeded random builders."""

import random

import pytest

from diffrad import Divisor, gcd, multi_gcd, pairwise_coprime
from diffrad.fermat import Form
from diffrad.generators import (
    random_divisor,
    random_factored,
    random_fermat_instance,
    random_kappa,
    random_mason_triple,
    random_mason_tuple,
    random_ord_inputs,
    random_poly,
)
from naive_poly import linearly_independent


def test_same_seed_same_stream(tower):
    def draw(seed):
        rng = random.Random(seed)
        kappa = random_kappa(rng, tower)
        return (
            kappa,
            random_poly(rng, tower, 4, kappa),
            random_factored(rng, tower, kappa),
            random_divisor(rng, tower, kappa),
            random_mason_triple(rng, tower, kappa),
        )

    assert draw(99) == draw(99)
    assert draw(99) != draw(100)


def test_random_kappa_nonzero(tower):
    rng = random.Random(60)
    for _ in range(100):
        assert not random_kappa(rng, tower).is_zero()


def test_random_poly_contract(tower):
    rng = random.Random(61)
    for _ in range(50):
        p = random_poly(rng, tower, 4, random_kappa(rng, tower))
        assert not p.is_zero()
        assert p.tower == tower
        assert p.degree <= 4


def test_random_factored_contract(tower):
    rng = random.Random(62)
    for _ in range(50):
        f = random_factored(rng, tower, random_kappa(rng, tower), max_roots=3, max_mult=2)
        assert 1 <= len(f.factors) <= 3
        assert all(mult >= 1 for _, mult in f.factors)
        assert 1 <= f.degree <= 6
        assert not f.leading.is_zero()


def test_random_mason_triple_contract(tower):
    rng = random.Random(63)
    for _ in range(20):
        a, b, c = random_mason_triple(rng, tower, random_kappa(rng, tower))
        assert a + b == c
        assert gcd(a, b).degree == 0
        assert max(a.degree, b.degree, c.degree) >= 1


def test_random_mason_tuple_contract(tower):
    rng = random.Random(64)
    for m in (2, 3):
        for _ in range(10):
            ps = random_mason_tuple(rng, tower, random_kappa(rng, tower), m)
            assert len(ps) == m + 1
            total = ps[0]
            for p in ps[1:m]:
                total = total + p
            assert total == ps[-1]
            assert pairwise_coprime(ps)[0]
            assert linearly_independent(list(ps[:m]))
    with pytest.raises(ValueError):
        random_mason_tuple(rng, tower, tower.one, 1)


def test_random_divisor_contract(tower):
    rng = random.Random(65)
    for _ in range(30):
        D = random_divisor(rng, tower, random_kappa(rng, tower), max_points=4, max_mult=3)
        assert isinstance(D, Divisor)
        assert 1 <= len(D) <= 4
        assert D.total() <= 12


def test_random_ord_inputs_contract(tower):
    rng = random.Random(66)
    for m in (2, 3):
        for _ in range(8):
            gs = random_ord_inputs(rng, tower, random_kappa(rng, tower), m)
            assert len(gs) == m
            dense = [g.expand() for g in gs]
            total = dense[0]
            for p in dense[1:]:
                total = total + p
            assert not total.is_zero()
            assert linearly_independent(dense)
            assert multi_gcd(dense).degree == 0
    with pytest.raises(ValueError):
        random_ord_inputs(rng, tower, tower.one, 1)


def test_fermat_instance_builder_validation(tower):
    rng = random.Random(67)
    with pytest.raises(ValueError):
        random_fermat_instance(rng, tower, Form.SUM_ONE, n=2)
    with pytest.raises(ValueError):
        random_fermat_instance(rng, tower, Form.SUM_FACTORIAL, m=3, n=2)
    inst = random_fermat_instance(rng, tower, Form.XYZ, n=2)
    assert inst.n == 2 and len(inst.ps) == 3
