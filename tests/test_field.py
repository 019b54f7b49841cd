"""Quadratic tower arithmetic: exactness, embeddings, sign decisions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import naive_poly
from diffrad import FieldElement, FieldTower, compare_real, default_tower, field
from diffrad.errors import (
    EnclosureWidthError,
    NonRealRadicandError,
    SquareRadicandError,
    TowerDepthError,
    ZeroRadicandError,
)
from diffrad.generators import random_element


def test_default_tower_shape(tower):
    assert tower.depth == 3
    assert tower.dim == 8
    assert tower.describe() == "Q(i, sqrt(2), sqrt(3))"


def test_generators_square_to_radicands(tower):
    i, s2, s3 = (tower.sqrt_gen(k) for k in range(3))
    assert i * i == -1
    assert s2 * s2 == 2
    assert s3 * s3 == 3
    assert (s2 * s3) ** 2 == 6


def test_field_axioms_bulk(tower):
    rng = random.Random(101)
    one = tower.one
    for _ in range(1000):
        a = random_element(rng, tower, 4, 0.6)
        b = random_element(rng, tower, 4, 0.6)
        c = random_element(rng, tower, 4, 0.6)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == one
            assert (one / a) * a == one


# Sparse coordinates, so that products also run over elements lifted from
# a subtower.
_COORDS = st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=7))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_field_axioms_on_every_tower(any_tower, data):
    t = any_tower
    element = st.lists(_COORDS, min_size=t.dim, max_size=t.dim).map(t.element)
    a, b, c = data.draw(element), data.draw(element), data.draw(element)
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a
    if a:
        assert a * a.inverse() == t.one
        assert a.inverse().conj() == a.conj().inverse()


def test_conj_involutive_and_multiplicative(tower):
    rng = random.Random(7)
    for _ in range(300):
        a = random_element(rng, tower, 4, 0.7)
        b = random_element(rng, tower, 4, 0.7)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_abs_squared_multiplicative(tower):
    rng = random.Random(8)
    for _ in range(300):
        a = random_element(rng, tower, 4, 0.7)
        b = random_element(rng, tower, 4, 0.7)
        ab = (a * b).abs_squared()
        assert ab == a.abs_squared() * b.abs_squared()
        assert ab.is_real()


def test_embed_encloses_and_separates(tower):
    # sqrt(2) = 1.41421356...; tighter boxes must separate it from nearby
    # rationals on both sides.
    s2 = tower.sqrt_gen(1)
    assert compare_real(s2, Fraction(141421356, 100000000)) == 1
    assert compare_real(s2, Fraction(141421357, 100000000)) == -1
    assert compare_real(s2 * s2, 2) == 0
    box = s2.embed(64)
    assert box.re_lo**2 <= 2 <= box.re_hi**2  # encloses the true root
    assert box.width <= Fraction(1, 2**64)


def test_embed_width_contract(tower):
    rng = random.Random(9)
    for _ in range(25):
        a = random_element(rng, tower, 4, 0.8)
        wide = a.embed(16)
        tight = a.embed(48)
        assert tight.width <= Fraction(1, 2**48)
        assert wide.re_lo <= tight.re_lo and tight.re_hi <= wide.re_hi
        assert wide.im_lo <= tight.im_lo and tight.im_hi <= wide.im_hi


def test_embed_raises_when_refinement_cannot_reach_the_width(tower, monkeypatch):
    # |e_s| in [1, 2] at every precision: no box ever narrows.
    wide = lambda tw, prec: ((0, 1 << prec, 2 << prec),) * tw.dim  # noqa: E731
    monkeypatch.setattr(FieldTower, "_bounds", wide)
    with pytest.raises(EnclosureWidthError):
        tower.sqrt_gen(1).embed(16)
    with pytest.raises(EnclosureWidthError):
        tower.rational(Fraction(1, 3)).embed(53)


def test_enclosure_precision_is_capped(tower, monkeypatch):
    rng = random.Random(10)
    for _ in range(10):
        a = random_element(rng, tower, 4, 0.8)
        # accepted at the first precision, 53 + 4 bits
        box, scale = a.embed(53), a._den << 57
        first = [Fraction(v, scale) for v in field._linear(a._num, tower._bounds(57))]
        assert [box.re_lo, box.re_hi, box.im_lo, box.im_hi] == first
    with pytest.raises(EnclosureWidthError):
        tower.sqrt_gen(1).embed(field.MAX_ENCLOSURE_BITS)
    # A radicand whose bounds never clear 0: the tables stop before its root,
    # and an element that uses the root fails every precision up to the cap.
    # A fresh object: the patched _linear must not reach a shared tower's memo.
    s2 = FieldTower.rationals().adjoin_sqrt(2)
    fresh = FieldTower(s2._gens, s2._signs)
    precs = []
    exact = FieldTower._bounds

    def recorded(tw, prec):
        precs.append(prec)
        return exact(tw, prec)

    monkeypatch.setattr(FieldTower, "_bounds", recorded)
    monkeypatch.setattr(field, "_linear", lambda num, bounds: [-1, 1, 0, 0])
    with pytest.raises(EnclosureWidthError):
        fresh.sqrt_gen(0).embed(53)
    assert precs == [57 << k for k in range(11)]
    assert precs[-1] <= field.MAX_ENCLOSURE_BITS < 2 * precs[-1]
    assert all(len(fresh._box_cache[p]) == 1 for p in precs)


def _sign_towers():
    q = FieldTower.rationals()
    s2 = q.adjoin_sqrt(2)
    i2 = q.adjoin_sqrt(-1).adjoin_sqrt(2)
    return {
        "Q(i, sqrt(2), sqrt(3))": default_tower(),
        "Q(sqrt(2), sqrt(1 + sqrt(2)))": s2.adjoin_sqrt(1 + s2.sqrt_gen(0)),
        "Q(i, sqrt(-3))": q.adjoin_sqrt(-1).adjoin_sqrt(-3),
        # 1 - 2*sqrt(2) < 0: an imaginary root over a non-rational radicand
        "Q(i, sqrt(2), sqrt(1 - 2*sqrt(2)))": i2.adjoin_sqrt(1 - 2 * i2.sqrt_gen(1)),
    }


SIGN_TOWERS = _sign_towers()
_small = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))


@st.composite
def _real_elements(draw, tower):
    """Real elements: x + conj(x), |x|^2 - t, or x + conj(x) minus a close rational."""
    x = tower.element(draw(st.lists(_small, min_size=tower.dim, max_size=tower.dim)))
    shape = draw(st.sampled_from(["sum", "norm", "near"]))
    if shape == "norm":
        return x.abs_squared() - draw(_small)
    r = x + x.conj()
    if shape == "near":
        approx = Fraction(complex(r).real).limit_denominator(draw(st.integers(1, 10**6)))
        r = r - approx
    return r


@pytest.mark.parametrize("name", sorted(SIGN_TOWERS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_signs_match_interval_refinement(name, data):
    tower = SIGN_TOWERS[name]
    x = data.draw(_real_elements(tower))
    assert x.sign_real() == naive_poly.sign_real(x)
    y = data.draw(_real_elements(tower))
    assert compare_real(x, y) == naive_poly.sign_real(x - y)
    if any(tower.gen_sign(k) < 0 for k in range(tower.depth)):
        # z is purely imaginary, and Im(z) > 0 exactly when z*g < 0 for an
        # imaginary root g = i|g|
        z = x * tower.sqrt_gen(max(k for k in range(tower.depth) if tower.gen_sign(k) < 0))
        z_times_g = field._times_imag_root(z._num, tower)
        assert field._sign(z_times_g, tower) == -naive_poly.sign_imag(z)


@pytest.mark.parametrize("name", sorted(SIGN_TOWERS))
def test_recorded_root_signs_match_interval_refinement(name):
    tower = SIGN_TOWERS[name]
    for k in range(tower.depth):
        assert tower.gen_sign(k) == naive_poly.sign_real(tower.gen_radicand(k))


def test_sign_decisions_are_exact(tower):
    s2, s3 = tower.sqrt_gen(1), tower.sqrt_gen(2)
    # s2 + s3 - 3.1462643... is tiny but nonzero; the exact sign resolves it.
    delta = s2 + s3 - tower.rational(Fraction(31462643699419723, 10**16))
    assert delta.sign_real() != 0
    assert compare_real(s2 + s3, 3) == 1
    assert compare_real(s2 - s3, 0) == -1
    assert tower.zero.sign_real() == 0


def test_sign_real_rejects_complex(tower):
    i = tower.sqrt_gen(0)
    with pytest.raises(ValueError):
        (tower.one + i).sign_real()


def test_adjoin_rejects_degenerate_radicands(tower):
    with pytest.raises(ZeroRadicandError):
        tower.adjoin_sqrt(0)
    with pytest.raises(SquareRadicandError):
        tower.adjoin_sqrt(4)
    with pytest.raises(SquareRadicandError):
        tower.adjoin_sqrt(6)  # sqrt(2)*sqrt(3) already in the tower
    with pytest.raises(NonRealRadicandError):
        tower.adjoin_sqrt(tower.one + tower.sqrt_gen(0))


def test_tower_depth_is_capped_before_the_basis_table(tower, monkeypatch):
    built, basis_table = [], field._basis_table
    monkeypatch.setattr(field, "_basis_table", lambda g: built.append(g) or basis_table(g))
    cap = field.MAX_DEPTH
    with pytest.raises(TowerDepthError, match=f"at most {cap} square roots, got {cap + 1}"):
        FieldTower([((2,), 1)] * (cap + 1), [1] * (cap + 1))
    # adjoin_sqrt raises the same error one root past the cap, on a tower
    # that has not built that child yet.
    monkeypatch.setattr(field, "MAX_DEPTH", tower.depth)
    monkeypatch.setattr(tower, "_children", {})
    with pytest.raises(TowerDepthError):
        tower.adjoin_sqrt(5)
    assert built == [] and tower._children == {}


def test_basis_table_matches_the_multiplied_out_table(any_tower):
    """A rational radicand scales the old entries; any other is multiplied in.
    Both give the table that multiplying every entry out gives."""
    for t in (any_tower, any_tower.adjoin_sqrt(Fraction(5, 4))):
        assert (t._table, t._tden) == naive_poly.basis_table(t._gens)


def test_deepest_rational_tower_has_the_multiplied_out_table():
    deep = FieldTower.rationals()
    for d in (-1, 2, 3, 5, 7, 11, 13, Fraction(17, 3)):
        deep = deep.adjoin_sqrt(d)
    assert deep.depth == field.MAX_DEPTH
    # adjoin_sqrt clears the denominator of a rational radicand; a tower
    # built from its generators may keep one, as sqrt(3/2) does here.
    direct = FieldTower([((2,), 1), ((3, 0), 2)], [1, 1])
    for t in (deep, direct):
        assert (t._table, t._tden) == naive_poly.basis_table(t._gens)


def test_adjoin_returns_one_tower_per_generator_chain(tower):
    q = FieldTower.rationals()
    assert q is FieldTower.rationals() and q.depth == 0
    chain = q.adjoin_sqrt(-1).adjoin_sqrt(2).adjoin_sqrt(3)
    assert chain is tower
    # One key per canonical radicand, however it was spelled.
    big = tower.adjoin_sqrt(5)
    assert tower.adjoin_sqrt(Fraction(10, 2)) is big
    assert tower.adjoin_sqrt(tower.rational(5)) is big
    fresh = FieldTower(big._gens, big._signs)
    assert fresh == big and fresh is not big and fresh._fp_images is None
    # A radicand that fails is checked, and raises, on every call.
    children = dict(tower._children)
    for _ in range(2):
        for d, error in ((0, ZeroRadicandError), (4, SquareRadicandError),
                         (6, SquareRadicandError)):
            with pytest.raises(error):
                tower.adjoin_sqrt(d)
    assert tower._children == children


def test_adjoin_extends_and_lifts(tower):
    big = tower.adjoin_sqrt(5)
    assert big.depth == 4
    assert big.extends(tower)
    s5 = big.sqrt_gen(3)
    assert s5 * s5 == 5
    lifted = tower.sqrt_gen(1).lift_to(big)
    assert lifted * lifted == 2
    assert big.sqrt_of_rational(5) == s5
    # positive branch selected
    assert big.sqrt_of_rational(5).sign_real() == 1


def test_sqrt_of_rational_branches(tower):
    s2 = tower.sqrt_of_rational(2)
    assert s2 is not None and s2.sign_real() == 1
    r = tower.sqrt_of_rational(-2)
    assert r is not None and (r * r) == -2
    assert naive_poly.sign_imag(r) == 1
    assert tower.sqrt_of_rational(5) is None
    assert tower.try_sqrt(tower.rational(Fraction(9, 4))) is not None


def test_rationals_tower():
    q = FieldTower.rationals()
    assert q.dim == 1
    assert q.describe() == "Q"
    x = q.rational(Fraction(3, 7))
    assert x + x == q.rational(Fraction(6, 7))
    assert x.as_fraction() == Fraction(3, 7)


def test_element_takes_one_coordinate_per_basis_element(any_tower):
    t = any_tower
    assert FieldElement(t, range(t.dim)) == t.element(range(t.dim))
    for count in (0, 1, t.dim - 1, t.dim + 1):
        with pytest.raises(ValueError, match=f"expected {t.dim} coordinates, got {count}"):
            FieldElement(t, [1] * count)
        with pytest.raises(ValueError, match=f"expected {t.dim} coordinates"):
            t.element([1] * count)


def test_incompatible_towers_rejected(tower):
    other = FieldTower.rationals().adjoin_sqrt(7)
    with pytest.raises(ValueError):
        tower.one + other.sqrt_gen(0)


def test_element_hash_consistent_across_lifts(tower):
    small = FieldTower.rationals()
    a = small.rational(Fraction(5, 3))
    b = a.lift_to(tower)
    assert hash(a) == hash(b)
    assert a == b
    assert b == tower.rational(Fraction(5, 3))


def test_rational_elements_hash_as_their_value(tower):
    """Equal values hash alike, so sets and dicts find an element by number."""
    assert 3 in {tower.rational(3)} and tower.rational(3) in {3}
    assert tower.rational(Fraction(1, 2)) in {Fraction(1, 2)}
    assert Fraction(-7, 4) in {tower.rational(Fraction(-7, 4))}
    assert 0 in {tower.zero} and {tower.one: "one"}[1] == "one"
    small = FieldTower.rationals().adjoin_sqrt(-1)
    lifted = small.rational(Fraction(5, 3)).lift_to(tower)
    assert lifted in {Fraction(5, 3)} and Fraction(5, 3) in {small.rational(Fraction(5, 3))}
    assert 2 not in {tower.rational(2) + tower.sqrt_gen(0)}


def test_element_hash_drops_trailing_zeros_across_lifts(tower):
    # The hash is kept with the element on first use; it must still be the
    # one every lift of the element computes, whichever is hashed first.
    rng = random.Random(11)
    subs = _subtowers(tower)
    for small in subs:
        for _ in range(20):
            coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(small.dim)]
            coords[rng.randrange(small.dim)] = 0
            x = small.element(coords)
            lifts = [x.lift_to(big) for big in subs if big.extends(small)]
            if rng.random() < 0.5:
                lifts.reverse()
            hashes = {hash(y) for y in lifts} | {hash(x), hash(x)}
            assert len(hashes) == 1
            assert all(y in {x} for y in lifts) and x in set(lifts)
            built = tower.element(lifts[-1].lift_to(tower).coords)
            assert hash(built) == hash(x) and hash(x + 1 - 1) == hash(x)


def _subtowers(tower):
    """The towers on each prefix of tower's generators, Q first."""
    out = [FieldTower.rationals()]
    for idx in range(tower.depth):
        out.append(out[-1].adjoin_sqrt(tower.gen_radicand(idx).as_fraction()))
    return out


def _all_fractions(x):
    return all(type(c) is Fraction for c in x.coords)


def test_lifted_elements_match_their_subtower(tower):
    # Zero upper halves are skipped by every kernel; the pruned results must be
    # the subtower's results, lifted, coordinate for coordinate.
    rng = random.Random(2024)
    subs = _subtowers(tower)
    assert subs[-1] == tower
    for sub in subs:
        samples = [sub.element([Fraction(1 if k == pos else 0) for k in range(sub.dim)])
                   * Fraction(rng.randint(1, 9), rng.randint(1, 5)) for pos in range(sub.dim)]
        samples += [
            sub.element([Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(sub.dim)])
            for _ in range(6)
        ]
        for small in samples:
            if small.is_zero():
                continue
            big = small.lift_to(tower)
            inv = big.inverse()
            assert inv.coords == small.inverse().lift_to(tower).coords
            assert big * inv == 1 and _all_fractions(inv)
            root = tower.try_sqrt(big * big)
            assert root.coords == sub.try_sqrt(small * small).lift_to(tower).coords
            assert root * root == big * big and _all_fractions(root)
            assert big.conj().coords == small.conj().lift_to(tower).coords
            for bits in (16, 53):
                wide, narrow = big.embed(bits), small.embed(bits)
                assert (wide.re_lo, wide.re_hi, wide.im_lo, wide.im_hi) == (
                    narrow.re_lo, narrow.re_hi, narrow.im_lo, narrow.im_hi
                )
            # the same element moved to the upper halves: zero lower halves
            for gen in range(sub.depth, tower.depth):
                g = tower.sqrt_gen(gen)
                moved = big * g
                assert moved.inverse() == inv * g.inverse()
                assert moved * moved.inverse() == 1
                assert moved.conj() == big.conj() * g.conj()


def test_full_elements_invert_and_take_roots(tower):
    rng = random.Random(2025)
    for _ in range(40):
        x = tower.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(8)])
        if x.is_zero():
            continue
        inv = x.inverse()
        assert x * inv == 1 and inv * x == tower.one
        assert _all_fractions(inv) and _all_fractions(x.conj())
        root = tower.try_sqrt(x * x)
        assert root is not None and root * root == x * x
        assert root in (x, -x)
        assert x.conj().conj() == x
        assert hash(x) == hash(tower.element(x.coords))


SQRT_GRID = [0, 1, -1, 2, -2, Fraction(1, 4), Fraction(-1, 4), 8, -12, 5, Fraction(7, 3)]


def _fresh_default():
    """A tower equal to the default one, with none of its memos."""
    t = default_tower()
    return FieldTower(t._gens, t._signs)


def _check_branch(q, root):
    """root is the branch-selected square root of the rational q."""
    assert root * root == q
    if q > 0:
        assert root.sign_real() == 1
    elif q < 0:
        assert not root.is_real() and naive_poly.sign_imag(root) == 1


def test_sqrt_of_rational_memo_matches_fresh_computation(tower):
    fresh = _fresh_default()
    assert fresh == tower and fresh is not tower
    for q in SQRT_GRID:
        first = fresh.sqrt_of_rational(q)  # the first, uncached call on `fresh`
        if q in (5, Fraction(7, 3)):
            assert first is None
        else:
            _check_branch(q, first)
            assert first.tower is fresh and _all_fractions(first)
        for tw in (fresh, tower, fresh, tower):
            again = tw.sqrt_of_rational(q)
            if first is None:
                assert again is None
            else:
                assert again.coords == first.coords and again.tower is tw
        assert fresh.sqrt_of_rational(Fraction(q)) is fresh.sqrt_of_rational(q)


def test_sqrt_of_rational_memo_is_per_tower(tower):
    assert tower.sqrt_of_rational(5) is None
    big = tower.adjoin_sqrt(5)
    s5 = big.sqrt_of_rational(5)
    assert s5 == big.sqrt_gen(3) and s5.tower is big
    _check_branch(5, s5)
    assert tower.sqrt_of_rational(5) is None
    assert big.sqrt_of_rational(2).tower is big
    assert tower.sqrt_of_rational(2).tower is tower
    _check_branch(-20, big.sqrt_of_rational(-20))


@pytest.mark.parametrize(
    "a, b, missing",
    [
        (1, 1, (5, Fraction(7, 3), -12, 3, -3)),
        # 9 + 6*sqrt(2) = 3*(1 + sqrt(2))^2: try_sqrt meets sqrt(3) and
        # sqrt(-12) on the negative branch, so these need branch selection.
        (9, 6, (5, Fraction(7, 3))),
    ],
)
def test_sqrt_of_rational_over_non_rational_radicand(a, b, missing):
    base = FieldTower.rationals().adjoin_sqrt(-1).adjoin_sqrt(2)

    def build():  # Q(i, sqrt(2), sqrt(a + b*sqrt(2)))
        return base.adjoin_sqrt(a + b * base.sqrt_gen(1))

    tw = build()
    for q in SQRT_GRID + [3, -3]:
        fresh = build().sqrt_of_rational(q)
        for _ in range(2):
            root = tw.sqrt_of_rational(q)
            if q in missing:
                assert root is None and fresh is None
            else:
                _check_branch(q, root)
                assert root.coords == fresh.coords
