"""`FieldElement.embed` against mpmath at 600 bits.

Every box must contain the value, be no wider than 2**-bits, come back as a
point for a rational, and be the box the element gets in its subtower when
it is lifted.  The towers cover imaginary roots over rational and
non-rational radicands, and basis elements i**k * |e_s| for k = 0..3.
"""

import random
from fractions import Fraction

import pytest

from conftest import _nested_tower, _tden_tower
from diffrad import FieldTower, default_tower

mpmath = pytest.importorskip("mpmath")

BITS = (8, 53, 200)
TOL = mpmath.mpf(2) ** -560


def _towers():
    q = FieldTower.rationals()
    i2 = q.adjoin_sqrt(-1).adjoin_sqrt(2)
    return {
        "default": default_tower(),
        "nested": _nested_tower(),
        "tden": _tden_tower(),
        # e_3 = i * sqrt(-3) = -sqrt(3): k = 2
        "i-sqrt-3": q.adjoin_sqrt(-1).adjoin_sqrt(-3),
        # e_7 = i * sqrt(-2) * sqrt(-3) = -i sqrt(6): k = 3
        "i-sqrt-2-sqrt-3": q.adjoin_sqrt(-1).adjoin_sqrt(-2).adjoin_sqrt(-3),
        # 1 - 2*sqrt(2) < 0: an imaginary root over a non-rational radicand
        "i-imag-nested": i2.adjoin_sqrt(1 - 2 * i2.sqrt_gen(1)),
    }


TOWERS = _towers()


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _basis_values(tower):
    """The complex values of the basis elements e_s, at the working precision."""
    vals = [mpmath.mpc(1)]
    for j in range(tower.depth):
        d = sum(_mp(c) * v for c, v in zip(tower.gen_radicand(j).coords, vals)).real
        root = mpmath.sqrt(d) if tower.gen_sign(j) > 0 else mpmath.mpc(0, mpmath.sqrt(-d))
        vals += [v * root for v in vals]
    return vals


def _samples(tower, rng, count):
    """Sparse and dense elements, some nearly cancelling to a small value."""
    out = []
    for n in range(count):
        coords = [Fraction(0)] * tower.dim
        for s in rng.sample(range(tower.dim), rng.randint(1, tower.dim)):
            coords[s] = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        x = tower.element(coords)
        if n % 4 == 3 and not x.is_rational():
            # subtract a close rational: relative width then matters
            x = x - Fraction(complex(x).real).limit_denominator(10**9)
        out.append(x)
    return out


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_embed_contains_the_value(name):
    tower = TOWERS[name]
    rng = random.Random(sorted(TOWERS).index(name))
    with mpmath.workprec(600):
        vals = _basis_values(tower)
        for x in _samples(tower, rng, 80):
            value = sum(_mp(c) * v for c, v in zip(x.coords, vals))
            for bits in BITS:
                box = x.embed(bits)
                assert box.width <= Fraction(1, 1 << bits)
                assert _mp(box.re_lo) - TOL <= value.real <= _mp(box.re_hi) + TOL, (x, bits)
                assert _mp(box.im_lo) - TOL <= value.imag <= _mp(box.im_hi) + TOL, (x, bits)
                if x.is_rational():
                    q = x.as_fraction()
                    assert (box.re_lo, box.re_hi, box.im_lo, box.im_hi) == (q, q, 0, 0)


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_lifted_box_is_the_subtower_box(name):
    tower = TOWERS[name]
    rng = random.Random(100 + sorted(TOWERS).index(name))
    for depth in range(tower.depth):
        sub = FieldTower(tower._gens[:depth], tower._signs[:depth])
        for small in _samples(sub, rng, 20):
            big = small.lift_to(tower)
            for bits in BITS:
                a, b = big.embed(bits), small.embed(bits)
                assert (a.re_lo, a.re_hi, a.im_lo, a.im_hi) == (b.re_lo, b.re_hi, b.im_lo, b.im_hi)
