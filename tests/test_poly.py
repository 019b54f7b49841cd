"""Dense and factored polynomial arithmetic over the tower."""

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import diffrad
import naive_poly
from diffrad import (
    Divisor,
    FactoredPoly,
    FieldTower,
    Polynomial,
    casoratian,
    diff_radical_m,
    divisor_of,
    gcd,
    linearly_independent,
    modular,
    multi_gcd,
    shift_gcd_factor,
)
from diffrad.errors import (
    NonPositiveMultiplicityError,
    NotDivisibleError,
    ZeroLeadingError,
    ZeroPolynomialError,
    ZeroShiftError,
)
from diffrad.field import muladd
from diffrad.divisor import _truncated_weights
from diffrad.parser import _MAX_LITERAL, MAX_POWER
from diffrad.generators import (
    random_divisor,
    random_element,
    random_factored,
    random_kappa,
    random_poly,
)
from diffrad.poly import require_shift, shift_window_excess


def _rand_pair(rng, tower):
    k = random_kappa(rng, tower)
    return random_poly(rng, tower, 5, k), random_poly(rng, tower, 5, k)


def test_ring_axioms(tower):
    rng = random.Random(31)
    for _ in range(120):
        p, q = _rand_pair(rng, tower)
        r = random_poly(rng, tower, 4)
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p
        assert p - p == Polynomial.zero(tower)


def test_divmod_roundtrip(tower):
    rng = random.Random(32)
    for _ in range(120):
        p, q = _rand_pair(rng, tower)
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.is_zero() or rem.degree < q.degree
        assert (p * q).divide_exact(q) == p


def test_divide_exact_raises_on_remainder(tower):
    z = Polynomial.variable(tower)
    with pytest.raises(NotDivisibleError):
        (z * z + 1).divide_exact(z + 1)
    with pytest.raises(ZeroPolynomialError):
        z.divide_exact(Polynomial.zero(tower))


def test_gcd_divides_both_and_coprime_cofactors(tower):
    rng = random.Random(33)
    for _ in range(80):
        p, q = _rand_pair(rng, tower)
        g = gcd(p, q)
        assert (p % g).is_zero() and (q % g).is_zero()
        assert g.lead == 1
        # cofactors are coprime after dividing the gcd out
        assert gcd(p.divide_exact(g), q.divide_exact(g)).degree == 0


def test_gcd_shift_equals_gcd_delta(tower):
    rng = random.Random(34)
    for _ in range(100):
        k = random_kappa(rng, tower)
        p = random_poly(rng, tower, 6, k)
        if p.is_constant():
            continue
        lhs = gcd(p, p.taylor_shift(k))
        rhs = gcd(p, p.delta(k))
        assert lhs == rhs


def test_multi_gcd_matches_folded_gcd(tower):
    rng = random.Random(35)
    for _ in range(60):
        k = random_kappa(rng, tower)
        ps = [random_poly(rng, tower, 4, k) for _ in range(3)]
        acc = ps[0]
        for q in ps[1:]:
            acc = gcd(acc, q)
        assert multi_gcd(ps) == acc
    with pytest.raises(ValueError):
        multi_gcd([])
    with pytest.raises(ZeroPolynomialError):
        multi_gcd([Polynomial.zero(tower)])


def test_taylor_shift_group_action(tower):
    rng = random.Random(36)
    for _ in range(80):
        p = random_poly(rng, tower, 6)
        a = random_element(rng, tower, 3, 0.4)
        b = random_element(rng, tower, 3, 0.4)
        assert p.taylor_shift(tower.zero) == p
        assert p.taylor_shift(a).taylor_shift(-a) == p
        assert p.taylor_shift(a).taylor_shift(b) == p.taylor_shift(a + b)


def test_delta_is_linear_and_drops_degree(tower):
    rng = random.Random(37)
    for _ in range(60):
        k = random_kappa(rng, tower)
        p = random_poly(rng, tower, 5, k)
        q = random_poly(rng, tower, 5, k)
        alpha = random_element(rng, tower, 3, 0.3)
        lhs = (p.scale(alpha) + q).delta(k)
        assert lhs == p.delta(k).scale(alpha) + q.delta(k)
        if p.degree >= 1:
            assert p.delta(k).degree == p.degree - 1
    with pytest.raises(ZeroShiftError):
        Polynomial.variable(tower).delta(0)


def test_eval_and_ord_at_roots(tower):
    rng = random.Random(38)
    for _ in range(60):
        k = random_kappa(rng, tower)
        f = random_factored(rng, tower, k)
        p = f.expand()
        for root, mult in f.factors:
            assert p.eval_at(root).is_zero()
            assert p.ord_at(root) == mult
        probe = random_element(rng, tower, 5, 0.4)
        assert p.ord_at(probe) == f.ord_at(probe)


def test_ord_at_falls_back_to_horner_where_the_image_vanishes(tower, monkeypatch):
    """ord_at answers 0 from the tower's first F_p image where that image
    proves p(w) != 0, with no tower arithmetic.  At w + ell, for a root w,
    the image vanishes although p does not, so the exact Horner passes must
    answer 0; so must they at a point with ell in its denominator."""
    image = next(modular.images(tower))
    ell = image.p
    w = 1 + tower.sqrt_gen(1)
    p = FactoredPoly(tower.one, [(w, 2), (tower.rational(-3), 1)]).expand()
    shifted = w + ell
    assert not p.eval_at(shifted).is_zero()
    residues = modular._branch0(p.coeffs, image)
    assert modular.eval_mod(residues, modular._branch0((shifted,), image)[0], ell) == 0

    steps = []
    real = diffrad.poly.muladd

    def spy(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(diffrad.poly, "muladd", spy)
    assert p.ord_at(shifted) == 0 and steps
    steps.clear()
    assert p.ord_at(w + Fraction(1, ell)) == 0 and steps
    steps.clear()
    assert p.ord_at(w + 1) == 0 and not steps
    assert p.ord_at(w) == 2


def test_ord_at_total_is_degree_for_split_polys(tower):
    rng = random.Random(39)
    for _ in range(40):
        f = random_factored(rng, tower, tower.one)
        p = f.expand()
        assert sum(m for _, m in f.factors) == p.degree


def test_factored_merges_duplicate_roots(tower):
    f = FactoredPoly(tower.one, [(1, 2), (tower.rational(1), 1), (0, 1)])
    assert f.ord_at(1) == 3
    assert f.degree == 4
    g = FactoredPoly(tower.one, [(0, 1), (1, 3)])
    assert f == g and hash(f) == hash(g)


def test_constant_polynomials_hash_as_their_value(tower):
    assert Polynomial(tower, [3]) in {3} and 3 in {Polynomial(tower, [3])}
    assert Polynomial(tower, [Fraction(1, 2)]) in {Fraction(1, 2)}
    assert Polynomial.zero(tower) in {0} and tower.zero in {Polynomial.zero(tower)}
    assert Polynomial(tower, [tower.sqrt_gen(1)]) in {tower.sqrt_gen(1)}
    z = Polynomial.variable(tower)
    assert len({z + 1, Polynomial(tower, [1, 1]), 1}) == 2


def test_factored_holds_one_divisor(any_tower):
    t = any_tower
    rng = random.Random(40)
    for _ in range(30):
        f = random_factored(rng, t, random_kappa(rng, t))
        assert divisor_of(f) is f.divisor
        assert f.divisor == Divisor(t, f.factors)
        assert f.roots() == f.divisor.support() and f.degree == f.divisor.total()
        assert all(f.ord_at(w) == f.divisor.multiplicity(w) for w in f.roots())


def test_factored_equality_is_leading_plus_divisor(any_tower):
    t = any_tower
    a, b, c = t.sqrt_gen(t.depth - 1), t.rational(Fraction(1, 2)), t.zero
    f = FactoredPoly(t.rational(2), [(a, 1), (b, 2), (c, 1)])
    # Entry order and splitting of multiplicities are not part of the value.
    same = FactoredPoly(t.rational(2), [(c, 1), (b, 1), (a, 1), (b, 1)])
    assert f == same and hash(f) == hash(same)
    assert hash(f) == hash((f.leading, f.divisor))
    assert f != FactoredPoly(t.rational(-2), f.factors)
    assert f != FactoredPoly(t.rational(2), [(a, 1), (b, 2)])
    assert f != FactoredPoly(t.rational(2), [(a, 2), (b, 1), (c, 1)])
    assert len({f, same, FactoredPoly(t.rational(2), f.divisor.items())}) == 1


def _brute_excess(mult: dict, kappa, m: int) -> dict:
    """ord_w - min over the whole window j = 0..m-1, by listing the window."""
    out = {}
    for w, c in mult.items():
        excess = c - min(mult.get(w + kappa * j, 0) for j in range(m))
        if excess:
            out[w] = excess
    return out


def test_window_excess_matches_the_window_minimum(any_tower):
    t = any_tower
    rng = random.Random(41)
    for _ in range(40):
        kappa = random_kappa(rng, t)
        D = random_divisor(rng, t, kappa, max_points=6)
        mult = dict(D.items())
        for m in (2, 3, 4):
            assert dict(D.window_excess(kappa, m)) == _brute_excess(mult, kappa, m)
        # n_tilde_q takes the q + 1 points w, ..., w + q*kappa.
        for q in (1, 2, 3):
            assert dict(_truncated_weights(D, kappa, q)) == _brute_excess(mult, kappa, q + 1)


def test_factored_rejects_bad_input(tower):
    with pytest.raises(ZeroLeadingError):
        FactoredPoly(tower.zero, [(0, 1)])
    with pytest.raises(NonPositiveMultiplicityError):
        FactoredPoly(tower.one, [(0, 0)])
    with pytest.raises(NonPositiveMultiplicityError):
        FactoredPoly(tower.one, [(0, -2)])


def test_factored_expand_degree_and_lead(tower):
    f = FactoredPoly(tower.rational(Fraction(-3, 2)), [(1, 2), (-2, 1)])
    p = f.expand()
    assert p.degree == 3
    assert p.lead == Fraction(-3, 2)
    assert p.eval_at(1).is_zero() and p.eval_at(-2).is_zero()


def test_monic_and_lead(tower):
    p = Polynomial(tower, (2, 0, 4))
    q = p.monic()
    assert q.lead == 1
    assert q == Polynomial(tower, (Fraction(1, 2), 0, 1))
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(tower).monic()


def test_degree_conventions(tower):
    assert Polynomial.zero(tower).degree == float("-inf")
    assert Polynomial(tower, (5,)).degree == 0
    assert Polynomial.variable(tower).degree == 1
    assert Polynomial(tower, (0, 0, 0)).is_zero()


def test_derivative_product_rule(tower):
    rng = random.Random(40)
    for _ in range(40):
        p = random_poly(rng, tower, 4)
        q = random_poly(rng, tower, 4)
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


# -- differential tests of the fused kernels against tests/naive_poly.py ------

DEGREES = range(25)


def _kappas(t):
    """A rational, an imaginary and an irrational shift."""
    half = t.rational(Fraction(1, 2))
    return [
        t.rational(Fraction(-3, 2)),
        t.sqrt_gen(0) * half,
        t.sqrt_gen(t.depth - 1) - t.rational(Fraction(1, 3)),
    ]


def _dense(rng, t, n):
    coeffs = [random_element(rng, t, 3, 0.5) for _ in range(n + 1)]
    while coeffs[-1].is_zero():
        coeffs[-1] = random_element(rng, t, 3, 0.5)
    return Polynomial(t, coeffs)


def test_muladd_equals_add_of_product(any_tower):
    t = any_tower
    rng = random.Random(41)
    samples = [t.zero, t.one, -t.one, t.sqrt_gen(t.depth - 1)]
    samples += [random_element(rng, t, 5, 0.8) for _ in range(40)]
    for _ in range(400):
        acc, x, y = (rng.choice(samples) for _ in range(3))
        for a in (acc, -(x * y)):  # the second sum cancels to zero
            fused = muladd(a, x, y)
            plain = a + x * y
            assert fused == plain and hash(fused) == hash(plain)
            assert all(type(c) is Fraction for c in fused.coords)


def test_taylor_shift_matches_horner(any_tower):
    t = any_tower
    rng = random.Random(42)
    for kappa in _kappas(t):
        for n in DEGREES:
            p = _dense(rng, t, n)
            assert p.taylor_shift(kappa) == naive_poly.taylor_shift(p, kappa)


def test_expand_matches_linear_product(any_tower):
    t = any_tower
    rng = random.Random(43)
    for n in DEGREES:
        kappa = _kappas(t)[n % 3]
        entries = []
        while sum(m for _, m in entries) < n:
            root = random_element(rng, t, 3, 0.5) + kappa * rng.randint(-2, 2)
            entries.append((root, min(rng.randint(1, 3), n - sum(m for _, m in entries))))
        f = FactoredPoly(random_element(rng, t, 3, 0.5) or t.one, entries)
        p = f.expand()
        assert p == naive_poly.expand(f)
        for root, mult in f.factors:
            assert p.ord_at(root) == mult
            assert p.eval_at(root).is_zero()
        probe = random_element(rng, t, 4, 0.5)
        assert p.eval_at(probe) == naive_poly.eval_at(p, probe)
    # Inputs at the edges of expand's coefficient bound: literals at the
    # parser's cap, negative and irrational leads, a zero root, roots with
    # every coordinate nonzero, the largest power the parser admits, and
    # products whose top coefficient is exactly the bound and fills its
    # 64-bit words, so that a bound without the sign bit overflows.
    big = _MAX_LITERAL
    dense = t.element([Fraction((-1) ** k * (k + 2), k + 1) for k in range(t.dim)])
    g = t.sqrt_gen(t.depth - 1)
    cases = [
        (t.rational(big), [(t.rational(-big), 1), (t.rational(Fraction(1, big)), 2)]),
        (t.rational(-big), [(dense * big, 1), (t.zero, 1)]),
        (-2 - 3 * g, [(t.zero, 3), (dense, 2), (g - 1, 1)]),
        (g * Fraction(-1, 7), [(dense, 4), (-dense, 1)]),
        (t.rational(-1), [(g + Fraction(1, 2), MAX_POWER // 2), (t.rational(-3), MAX_POWER // 2)]),
    ]
    for words in (1, 2):
        top = ((1 << 64 * words) - 1) // t._tden
        cases += [(t.rational(top), [(t.zero, 1)]), (t.rational(-top), [(t.zero, 1)])]
    for lead, entries in cases:
        f = FactoredPoly(lead, entries)
        assert f.expand() == naive_poly.expand(f)


def test_divmod_matches_schoolbook(any_tower):
    t = any_tower
    rng = random.Random(44)
    for n in DEGREES:
        p = _dense(rng, t, n)
        for dd in sorted({0, n // 3, n // 2, n, n + 1}):
            d = _dense(rng, t, dd)
            for divisor in (d, d.monic()):
                assert divmod(p, divisor) == naive_poly.poly_divmod(p, divisor)


def test_shift_gcd_factor_matches_explicit_shifts(any_tower):
    t = any_tower
    rng = random.Random(45)
    for n in DEGREES:
        kappa = _kappas(t)[n % 3]
        m = 1 + n % 4
        bases = [random_element(rng, t, 3, 0.5) for _ in range(2)]
        entries = [(bases[j % 2] + kappa * rng.randint(-3, 3), 1) for j in range(n)]
        p = FactoredPoly(t.rational(rng.choice([1, -2, Fraction(1, 2)])), entries).expand()
        assert shift_gcd_factor(p, kappa, m) == naive_poly.shift_gcd(p, kappa, m)


# -- the modular shift chain against explicit shifts ---------------------------


def _shift_towers():
    s2 = FieldTower.rationals().adjoin_sqrt(2)
    return {
        "default": diffrad.default_tower(),
        "real-nested": s2.adjoin_sqrt(1 + s2.sqrt_gen(0)),
        "i-sqrt-3": FieldTower.rationals().adjoin_sqrt(-1).adjoin_sqrt(-3),
    }


SHIFT_TOWERS = _shift_towers()
_ratio = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _shift_instance(draw, t):
    """(p, kappa, m): roots on kappa-lattices over two bases, with denominators."""

    def element():
        return t.element(draw(st.lists(_ratio, min_size=t.dim, max_size=t.dim)))

    unit = draw(st.sampled_from([t.one] + [t.sqrt_gen(j) for j in range(t.depth)]))
    kappa = unit * t.rational(draw(_ratio.filter(bool)))
    bases = [element(), element()]
    count = draw(st.integers(3, 7))
    entries = [
        (bases[draw(st.integers(0, 1))] + kappa * draw(st.integers(0, 2)),
         draw(st.integers(1, 3)))
        for _ in range(count)
    ]
    lead = element() or t.one
    return FactoredPoly(lead, entries).expand(), kappa, draw(st.integers(2, 4))


@pytest.mark.parametrize("name", sorted(SHIFT_TOWERS))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_shift_gcd_factor_matches_naive_chain(name, data):
    t = SHIFT_TOWERS[name]
    p, kappa, m = data.draw(_shift_instance(t))
    assert shift_gcd_factor(p, kappa, m) == naive_poly.shift_gcd(p, kappa, m)


def _lattice_poly(t):
    kappa = _kappas(t)[1]
    base = t.rational(Fraction(2, 3)) + t.sqrt_gen(t.depth - 1)
    f = FactoredPoly(t.rational(Fraction(-5, 2)), [(base + kappa * j, 2) for j in range(3)])
    return f.expand(), kappa


def test_shift_gcd_factor_is_proved_on_the_first_image(any_tower, monkeypatch):
    """The modular chain answers alone: no exact gcd, one suitable prime."""
    t = any_tower
    p, kappa = _lattice_poly(t)
    expected = [naive_poly.shift_gcd(p, kappa, m) for m in (2, 3, 4)]
    primes = []
    original = modular.images

    def images(tower):
        for image in original(tower):
            primes.append(image.p)
            yield image

    def no_gcd(a, b):
        raise AssertionError("an exact gcd ran")

    monkeypatch.setattr(modular, "images", images)
    monkeypatch.setattr(diffrad.poly, "gcd", no_gcd)
    assert [shift_gcd_factor(p, kappa, m) for m in (2, 3, 4)] == expected
    assert len(set(primes)) == 1


def test_shift_gcd_factor_rejects_a_wrong_candidate(any_tower, monkeypatch):
    """The first lifted candidate h of each chain comes back as h(z - kappa):
    for the true gcd that still divides p, with the right degree, but not
    p(z + kappa).  The exact divisions refute it, the next prime gives the
    true gcd, and the answer stays correct."""
    t = any_tower
    p, kappa = _lattice_poly(t)
    expected = [naive_poly.shift_gcd(p, kappa, m) for m in (2, 3)]
    lifted = []
    original = modular._reconstruct

    def wrong(tower, residues, m):
        coeffs = original(tower, residues, m)
        if coeffs is None:
            return None
        lifted.append(coeffs)
        if len(lifted) > 1:
            return coeffs
        moved = Polynomial(tower, coeffs + [tower.one]).taylor_shift(-kappa)
        return list(moved.coeffs[:-1])

    monkeypatch.setattr(modular, "_reconstruct", wrong)
    assert shift_gcd_factor(p, kappa, 2) == expected[0]
    assert len(lifted) == 2
    lifted.clear()
    assert shift_gcd_factor(p, kappa, 3) == expected[1]
    assert len(lifted) == 2
    assert (p % expected[0].taylor_shift(-kappa)).is_zero()


def test_shift_gcd_factor_of_a_line_takes_no_prime(any_tower):
    t = FieldTower(any_tower._gens, any_tower._signs)
    z = Polynomial.variable(t)
    line = z * 3 - t.sqrt_gen(0)
    assert shift_gcd_factor(line, 1, 3) == 1
    assert shift_gcd_factor(line, 0, 3) == line.monic()
    assert t._fp_images is None


# -- the modular gcd against monic Euclid -------------------------------------


def _product(t, lead, roots):
    return FactoredPoly(t._coerce(lead), [(r, 1) for r in roots]).expand()


def test_gcd_matches_euclid(any_tower):
    """Odd degrees share no root on purpose, even ones about half of them."""
    t = any_tower
    rng = random.Random(47)
    degrees = set()
    for n in DEGREES:
        kappa = _kappas(t)[n % 3]
        pool = [random_element(rng, t, 3, 0.5) + kappa * j for j in range(-3, 4)]
        shared = 0 if n % 2 else n // 2
        common = [rng.choice(pool) for _ in range(shared)]
        own = n - shared
        a = _product(t, rng.choice([1, -2, Fraction(3, 2)]),
                     common + [rng.choice(pool) + 7 for _ in range(own)])
        b = _product(t, t.sqrt_gen(t.depth - 1) + 1,
                     common + [rng.choice(pool) - 7 for _ in range(max(1, own // 2))])
        g = gcd(a, b)
        assert list(g.coeffs) == naive_poly.gcd(t, list(a.coeffs), list(b.coeffs))
        assert gcd(b, a) == g
        degrees.add(g.degree)
    assert 0 in degrees and max(degrees) >= 10


def _first_prime(t):
    return next(modular.images(t)).p


def test_gcd_skips_a_prime_in_a_denominator(any_tower):
    t = any_tower
    p = _first_prime(t)
    z = Polynomial.variable(t)
    root = t.rational(Fraction(1, p))
    a = (z - root) * (z + t.sqrt_gen(0))
    b = (z - root) * (z - 2)
    assert modular._branch0(a.coeffs, next(modular.images(t))) is None
    assert gcd(a, b) == z - root
    assert gcd(a, z + 3) == 1
    assert list(gcd(a, b).coeffs) == naive_poly.gcd(t, list(a.coeffs), list(b.coeffs))


def test_gcd_skips_a_prime_that_kills_the_leading_coefficient(any_tower):
    t = any_tower
    p = _first_prime(t)
    z = Polynomial.variable(t)
    a = (z * p + 1) * (z - 3)
    b = (z - 3) * (z + t.sqrt_gen(t.depth - 1))
    assert gcd(a, b) == z - 3
    assert gcd(a, z + 5) == 1


def test_gcd_drops_an_unlucky_prime(any_tower):
    """z and z - p share a root mod p only: the image degree 1 is a bound, and
    the candidate z fails the trial division."""
    t = any_tower
    image = next(modular.images(t))
    z = Polynomial.variable(t)
    a, b = z * (z + 2), (z - image.p) * (z + 3)
    fa, fb = modular._branch0(a.coeffs, image), modular._branch0(b.coeffs, image)
    assert len(modular.gcd_mod(fa, fb, image.p)) == 2
    assert gcd(a, b) == 1
    assert gcd(z, z - image.p) == 1
    # With a common factor the unlucky image z*(z + 1) is one degree too high.
    assert gcd(z * z * (z + 1), (z - image.p) * (z + 1)) == z + 1


def test_gcd_falls_back_to_euclid(any_tower, monkeypatch):
    """z - P for P the product of the first 8 image primes: each of those
    images is unlucky, and no Euclid over the tower steps in.  The scan
    goes on, and a 9th image proves z + 1."""
    t = any_tower
    big = 1
    for image in itertools.islice(modular.images(t), 8):
        big *= image.p
    taken = []
    original = modular.images

    def images(tower):
        for image in original(tower):
            taken.append(image.p)
            yield image

    monkeypatch.setattr(modular, "images", images)
    z = Polynomial.variable(t)
    assert gcd(z * (z + 1), (z - big) * (z + 1)) == z + 1
    assert len(taken) == 9 and big % taken[-1]
    taken.clear()
    assert gcd(z * (z + 1), (z - big + 1) * (z + 1)) == z + 1
    assert len(taken) == 1


def _deep_instance(rng):
    """(c*f, c*g, monic c) over Q(i, sqrt(17), sqrt(19), sqrt(23), sqrt(29)),
    whose suitable primes are rare.  c has degree 12 and a dense leading
    coefficient, so monic c has coordinates of hundreds of bits; f and g
    have disjoint rational roots, so the gcd is monic c by construction."""
    t = FieldTower.rationals().adjoin_sqrt(-1)
    for d in (17, 19, 23, 29):
        t = t.adjoin_sqrt(d)
    lead = t.element([Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
                      for _ in range(t.dim)])
    c = Polynomial(t, [random_element(rng, t, 4, 0.8) for _ in range(12)] + [lead])
    roots = rng.sample(range(-30, 31), 9)
    return c * _product(t, 1, roots[:4]), c * _product(t, -3, roots[4:]), c.monic()


def test_gcd_is_proved_on_a_tower_of_large_radicands():
    a, b, expected = _deep_instance(random.Random(52))
    assert expected.degree == 12 and max(c._den.bit_length() for c in expected.coeffs) > 200
    assert gcd(a, b) == expected


# -- one op call per distinct branch image --------------------------------------


def _spy_op_calls(monkeypatch):
    """Every `modular._lift` run as (tower, inputs, op calls per prime)."""
    runs = []
    original = modular._lift

    def lift(tower, inputs, op):
        calls = collections.Counter()
        runs.append((tower, inputs, calls))

        def spy(p, *rows):
            calls[p] += 1
            return op(p, *rows)

        return original(tower, inputs, spy)

    monkeypatch.setattr(modular, "_lift", lift)
    return runs


def _distinct_branch_rows(tower, inputs, p):
    image = next(image for image in modular.images(tower) if image.p == p)
    return len(set(zip(*[modular._all_branches(c, image) for c in inputs])))


def _subfield_calls(t):
    """name -> (call whose every prime reaches the all-branch step, the op
    calls per prime on the default tower, where that count is exact)."""
    z = Polynomial.variable(t)
    i = t.sqrt_gen(0)
    rational = _product(t, 3, [0, 0, 1, 1, 2])
    gaussian = _product(t, 1, [i, i, i + 1, Fraction(1, 2)])
    common = _product(t, i + 2, [i - 1, -i, Fraction(5, 3) * i])
    lattice, kappa = _lattice_poly(t)
    return {
        "rational shift": (lambda: shift_gcd_factor(rational, 1, 2), 1),
        "Q(i) shift": (lambda: shift_gcd_factor(gaussian, 1, 2), 2),
        "Q(i) gcd": (lambda: gcd(common * (z - 4), common * (z + i)), 2),
        "Q(i, sqrt 3) shift": (lambda: shift_gcd_factor(lattice, kappa, 2), None),
    }


def test_lift_runs_op_once_per_distinct_branch_image(any_tower, monkeypatch):
    """Branches whose residue rows coincide share one op call, found by the
    rows' content: on the nested tower a root's image depends on the signs
    of the earlier roots.  On the default tower the 8 branches collapse to
    the subfield's 1, 2 or 4."""
    t = any_tower
    runs = _spy_op_calls(monkeypatch)
    for name, (call, exact) in _subfield_calls(t).items():
        runs.clear()
        assert call().degree >= 1, name
        [(tower, inputs, calls)] = runs
        assert calls, name
        for p, n in calls.items():
            assert n == _distinct_branch_rows(tower, inputs, p), name
            if t == diffrad.default_tower():
                assert (n == exact) if exact else (n <= 4), name


def _subfield_lift(q, t):
    return Polynomial(t, [c.lift_to(t) for c in q.coeffs])


def _subfield_pairs():
    """(subtower S, tower T) with S a prefix of T."""
    q_i = FieldTower.rationals().adjoin_sqrt(-1)
    deep = q_i
    for d in (17, 19, 23, 29):
        deep = deep.adjoin_sqrt(d)
    default = diffrad.default_tower()
    return {
        "Q in default": (FieldTower.rationals(), default),
        "Q(i) in default": (q_i, default),
        "Q(i) in deep": (q_i, deep),
    }


def _lattice_product(rng, t, kappa):
    """Roots on two kappa-lattices, three points each, with multiplicities."""
    bases = [random_element(rng, t, 4, 0.5) for _ in range(2)]
    entries = [(rng.choice(bases) + kappa * rng.randint(0, 2), rng.randint(1, 3))
               for _ in range(rng.randint(3, 6))]
    return FactoredPoly(t.rational(rng.choice([1, -2, Fraction(3, 2)])), entries).expand()


@pytest.mark.parametrize("name", sorted(_subfield_pairs()))
def test_subfield_input_gives_the_subfield_answer(name):
    """gcd, shift_gcd_factor and diff_radical_m over T, on input from S,
    are the answers over S lifted into T."""
    sub, t = _subfield_pairs()[name]
    kappas = [sub.rational(Fraction(-3, 2))] + [sub.sqrt_gen(j) / 2 for j in range(sub.depth)]
    rng = random.Random(53)
    shift_degrees = set()
    for trial in range(8):
        kappa = kappas[trial % len(kappas)]
        m = 2 + trial % 3
        p, q = (_lattice_product(rng, sub, kappa) for _ in range(2))
        a, b = p * (q + 1), q * (q + 1)
        assert gcd(_subfield_lift(a, t), _subfield_lift(b, t)) == _subfield_lift(gcd(a, b), t)
        p_t, kappa_t = _subfield_lift(p, t), kappa.lift_to(t)
        expected = _subfield_lift(shift_gcd_factor(p, kappa, m), t)
        assert shift_gcd_factor(p_t, kappa_t, m) == expected
        over_t = diff_radical_m(p_t, kappa_t, m)
        over_s = diff_radical_m(p, kappa, m)
        assert over_t.radical == _subfield_lift(over_s.radical, t)
        assert over_t.cofactor == _subfield_lift(over_s.cofactor, t)
        assert over_t.n_tilde == over_s.n_tilde
        assert over_t.leading == over_s.leading.lift_to(t)
        shift_degrees.add(over_s.cofactor.degree)
    assert 0 in shift_degrees and max(shift_degrees) >= 2


def _is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24 (the first 13 prime bases)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modular_primes():
    """Over Q every prime suits, so the images show the scan itself: the
    primes p = 1 (mod 8) upward from 2**29 + 1, smallest first."""
    scanned = [image.p for image in itertools.islice(modular.images(FieldTower()), 40)]
    window = range((1 << 29) + 1, scanned[-1] + 1)
    assert scanned == [n for n in window if n % 8 == 1 and _is_prime(n)]
    # Strong pseudoprimes to the bases up to 2, 7 and 23 in turn.
    for n in [*range(2000), *window, 8321, 3215031751, 3825123056546413051]:
        assert modular._is_prime(n) == _is_prime(n), n


def test_tower_images_are_ring_maps(any_tower):
    """Each branch is a ring map; the transform inverts; radicands are squares."""
    t = any_tower
    rng = random.Random(48)
    for image in itertools.islice(modular.images(t), 2):
        p = image.p
        for j in range(t.depth):
            sub = modular._transform(
                [x % p for x in t._gens[j][0]], modular._butterflies(image.roots, 1 << j), p
            )
            den_inv = pow(t._gens[j][1], -1, p)
            assert [r * r % p for r in image.roots[j]] == [v * den_inv % p for v in sub]
        for _ in range(30):
            x, y = (random_element(rng, t, 5, 0.8) + random_element(rng, t, 5, 0.8)
                    for _ in range(2))
            fx, fy, fxy = (modular._all_branches([e], image) for e in (x, y, x * y))
            assert [u[0] * v[0] % p for u, v in zip(fx, fy)] == [w[0] for w in fxy]
            assert [fx[0][0]] == modular._branch0([x], image)
            values = [row[0] * x._den % p for row in fx]
            assert modular._untransform(values, image.backward, p) == [c % p for c in x._num]


def test_tower_images_fit_one_digit(any_tower):
    """The primes a lift takes are below 2**30: one CPython digit each."""
    primes = [image.p for image in itertools.islice(modular.images(any_tower), 40)]
    assert primes == sorted(primes) and primes[0] > 1 << 29 and primes[-1] < 1 << 30


def test_tower_images_are_memoised(any_tower):
    t = any_tower
    first = list(itertools.islice(modular.images(t), 10))
    again = itertools.islice(modular.images(t), 10)
    assert [a is b for a, b in zip(first, again)] == [True] * 10
    fresh = FieldTower(t._gens, t._signs)
    assert [a.p for a in itertools.islice(modular.images(fresh), 10)] == [a.p for a in first]


def test_shift_window_excess_matches_brute_force(any_tower):
    t = any_tower
    rng = random.Random(46)
    for kappa in _kappas(t):
        base = random_element(rng, t, 3, 0.5)
        lattice = [base + kappa * j for j in range(-2, 7)]
        for _ in range(25):
            orders = {w: rng.randint(1, 3) for w in rng.sample(lattice, rng.randint(1, 6))}

            def order(w):
                return orders.get(w, 0)

            for w in lattice[:5]:
                for m in range(1, 5):
                    brute = order(w) - min(order(w + j * kappa) for j in range(m))
                    assert shift_window_excess(order, w, kappa, m) == brute


@pytest.mark.parametrize("radicand", [-1, 5], ids=["Q(i)", "Q(sqrt5)"])
def test_arithmetic_takes_one_home_tower(tower, radicand):
    """Sums, products, divisions, gcds, divisors, shifts and Casoratians
    (m = 2 and m = 10, both sides of the size rule) take operands of one
    tower in either order; only equality compares across towers, and
    lift_to is the one way into a larger tower."""
    sub = FieldTower.rationals().adjoin_sqrt(radicand)
    p = Polynomial(tower, (tower.sqrt_gen(1), 1))
    q = Polynomial(sub, (sub.sqrt_gen(0), 2, 1))
    x, y = tower.sqrt_gen(2) + 1, sub.sqrt_gen(0) + 3
    for a, b, u, v in ((p, q, x, y), (q, p, y, x)):
        calls = (
            lambda: a + b, lambda: a - b, lambda: a * b, lambda: divmod(a, b),
            lambda: gcd(a, b), lambda: u + v, lambda: u - v, lambda: u * v, lambda: u / v,
            lambda: Divisor(a.tower, [(v, 1)]), lambda: require_shift(a.tower, v, "test"),
            lambda: casoratian([a, b], 1), lambda: linearly_independent([a, b]),
            lambda: casoratian([a + k for k in range(9)] + [b], 1),
            lambda: linearly_independent([a + k for k in range(9)] + [b]),
        )
        for call in calls:
            with pytest.raises(ValueError):
                call()
    up = sub.adjoin_sqrt(2)
    lifted_y = y.lift_to(up)
    assert y == lifted_y and lifted_y == y and hash(y) == hash(lifted_y)
    assert Polynomial(up, [c.lift_to(up) for c in q.coeffs]) == q
    if not tower.extends(sub):
        with pytest.raises(ValueError):
            y.lift_to(tower)
        return
    lq = Polynomial(tower, [c.lift_to(tower) for c in q.coeffs])
    ly = y.lift_to(tower)
    assert lq == q and q == lq and ly == y
    assert p + lq == lq + p and (p - lq) + lq == p
    assert divmod(p * lq + p, lq) == (p, p)
    assert gcd(p * lq, lq) == gcd(lq, p * lq) == lq.monic()
    assert (x + ly) - ly == x and (x * ly) / ly == x
    assert Divisor(tower, [(ly, 1)]).multiplicity(ly) == 1
    assert require_shift(tower, ly, "test") == y


# -- the shift and order contract of every public entry point --------------
#
# name -> (call with shift kappa, call with order n, lowest valid order).
# A zero shift must raise ZeroShiftError, an order below the lowest valid one
# or of a type other than int a plain ValueError; the lowest order passes.


def _z(t):
    return Polynomial.variable(t)


def _f(t):
    return FactoredPoly(t.one, [(0, 2), (1, 1)])


def _d(t):
    return diffrad.Divisor(t, {0: 2, 1: 1})


def _g(t):
    return [FactoredPoly(t.one, [(0, 1)]), FactoredPoly(t.one, [(1, 1)])]


SHIFT_AND_ORDER_ENTRY_POINTS = {
    "Polynomial.delta": (lambda t, k: _z(t).delta(k), None, None),
    "Polynomial.__pow__": (None, lambda t, n: _z(t) ** n, 0),
    "shift_gcd_factor": (None, lambda t, n: shift_gcd_factor(_z(t), 1, n), 1),
    "diff_radical": (lambda t, k: diffrad.diff_radical(_z(t), k), None, None),
    "diff_radical_m": (
        lambda t, k: diffrad.diff_radical_m(_z(t), k, 2),
        lambda t, n: diffrad.diff_radical_m(_z(t), 1, n),
        2,
    ),
    "n_tilde": (
        lambda t, k: diffrad.n_tilde(_z(t), k),
        lambda t, n: diffrad.n_tilde(_z(t), 1, n),
        2,
    ),
    "diff_radical_from_roots": (
        lambda t, k: diffrad.diff_radical_from_roots(_f(t), k),
        lambda t, n: diffrad.diff_radical_from_roots(_f(t), 1, n),
        2,
    ),
    "n_tilde_sum_bound": (
        lambda t, k: diffrad.n_tilde_sum_bound(_f(t), k, 2),
        lambda t, n: diffrad.n_tilde_sum_bound(_f(t), 1, n),
        2,
    ),
    "factorial_poly": (
        lambda t, k: diffrad.factorial_poly(_z(t), k, 2),
        lambda t, n: diffrad.factorial_poly(_z(t), 1, n),
        1,
    ),
    "FermatInstance": (
        lambda t, k: diffrad.FermatInstance((_z(t),) * 3, t._coerce(k), 1, diffrad.Form.XYZ),
        lambda t, n: diffrad.FermatInstance((_z(t),) * 3, t.one, n, diffrad.Form.XYZ),
        1,
    ),
    "fermat_bound m": (None, lambda t, n: diffrad.fermat_bound(diffrad.Form.SUM_ONE, n, 3), 2),
    "fermat_bound max_deg": (
        None,
        lambda t, n: diffrad.fermat_bound(diffrad.Form.SUM_ONE, 2, n),
        1,
    ),
    "casoratian": (lambda t, k: diffrad.casoratian([_z(t), _z(t) ** 2], k), None, None),
    "check_mason_triple": (
        lambda t, k: diffrad.check_mason_triple(_z(t), _z(t) + 1, _z(t) * 2 + 1, k),
        None,
        None,
    ),
    "check_mason_multi": (
        lambda t, k: diffrad.check_mason_multi([_z(t), _z(t) + 1, _z(t) * 2 + 1], k),
        None,
        None,
    ),
    "factorial_divisor": (
        lambda t, k: diffrad.factorial_divisor(_d(t), k, 2),
        lambda t, n: diffrad.factorial_divisor(_d(t), 1, n),
        1,
    ),
    "n_tilde_q": (
        lambda t, k: diffrad.n_tilde_q(_d(t), k, 1, 1),
        lambda t, n: diffrad.n_tilde_q(_d(t), 1, n, 1),
        1,
    ),
    "N_tilde_q_integrated": (
        lambda t, k: diffrad.N_tilde_q_integrated(_d(t), k, 1, 2),
        lambda t, n: diffrad.N_tilde_q_integrated(_d(t), 1, n, 2),
        1,
    ),
    "check_truncation q": (
        lambda t, k: diffrad.check_truncation(_d(t), k, 1, 1, [2]),
        lambda t, n: diffrad.check_truncation(_d(t), 1, n, 1, [2]),
        1,
    ),
    "check_truncation n": (None, lambda t, n: diffrad.check_truncation(_d(t), 1, 1, n, [2]), 1),
    "check_ord_inequality": (lambda t, k: diffrad.check_ord_inequality(_g(t), k), None, None),
}


@pytest.mark.parametrize("name", sorted(SHIFT_AND_ORDER_ENTRY_POINTS))
def test_shift_and_order_contract(tower, name):
    shift_call, order_call, low = SHIFT_AND_ORDER_ENTRY_POINTS[name]
    if shift_call is not None:
        for zero in (0, Fraction(0), tower.zero):
            with pytest.raises(ZeroShiftError, match="needs a nonzero shift"):
                shift_call(tower, zero)
        shift_call(tower, tower.sqrt_gen(0))
    if order_call is not None:
        for bad in (low - 1, Fraction(low), float(low)):
            with pytest.raises(ValueError) as exc:
                order_call(tower, bad)
            assert type(exc.value) is ValueError
            assert repr(bad) in str(exc.value)
        order_call(tower, low)
