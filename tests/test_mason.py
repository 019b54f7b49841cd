"""Degree bounds for coprime sums and the Casoratian machinery."""

import random
from fractions import Fraction

import pytest

import diffrad.mason
import naive_poly
from diffrad import (
    Polynomial,
    Statement,
    casoratian,
    check_mason_multi,
    check_mason_triple,
    linearly_independent,
    n_tilde,
    pairwise_coprime,
    parse_poly,
    setwise_coprime,
    shift_gcd_factor,
)
from diffrad.errors import ZeroShiftError
from diffrad.generators import (
    random_element,
    random_kappa,
    random_mason_triple,
    random_mason_tuple,
    random_poly,
)
from diffrad.mason import KRONECKER_MAX_M, _coprime_hypothesis, _det_bareiss


def test_casoratian_known_values(tower):
    z = Polynomial.variable(tower)
    one = Polynomial(tower, (1,))
    assert casoratian([one, z], 1) == one
    # C(z, z^2) = z*(z+k)^2 - z^2*(z+k) = k*z*(z+k)
    assert casoratian([z, z * z], 1) == parse_poly("z^2 + z", tower)
    k = tower.rational(Fraction(-3, 2))
    assert casoratian([z, z * z], k) == (z * (z + k)).scale(k)


# Degrees d_1..d_m: m up to 5, so m(m-1)/2 is odd (m = 2, 3) and even
# (m = 4, 5); constants; and d_j < m - 1, where Delta^(m-1) p_j vanishes.
DEGREE_PATTERNS = [
    (0, 1), (0, 0), (3, 0),
    (0, 1, 2), (1, 0, 4), (0, 0, 3), (2, 1, 1),
    (0, 1, 2, 3), (3, 1, 0, 2), (1, 1, 5, 0), (0, 2, 2, 4),
    (0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (1, 0, 6, 2, 3), (0, 0, 1, 2, 5), (2, 2, 3, 3, 4),
]


@pytest.mark.parametrize("m, divisions", [(2, 0), (3, 1), (4, 5)])
def test_bareiss_divides_by_no_constant_one(tower, monkeypatch, m, divisions):
    """Round k of Bareiss divides (m-1-k)^2 entries by the previous pivot;
    round 0 has none, so sum_{k=1}^{m-2} (m-1-k)^2 exact divisions remain.
    Bareiss runs on the Delta rows, bottom row first, as casoratian does
    above its size rule."""
    calls = []
    divide_exact = Polynomial.divide_exact

    def spy(p, d):
        calls.append(d)
        return divide_exact(p, d)

    z = Polynomial.variable(tower)
    ps = [z, z * z + 1, z ** 3 - 2, z ** 4 + z][:m]
    rows = [ps]
    for _ in range(1, m):
        rows.append([q.delta(1) for q in rows[-1]])
    monkeypatch.setattr(Polynomial, "divide_exact", spy)
    det = _det_bareiss(rows[::-1])
    monkeypatch.undo()
    det = -det if m * (m - 1) // 2 % 2 else det
    assert det == naive_poly.casoratian(ps, 1) and not det.is_zero()
    assert len(calls) == divisions


def test_casoratian_matches_cofactor_expansion(tower):
    rng = random.Random(71)
    for trial in range(40):
        k = random_kappa(rng, tower)
        m = 2 + trial % 4
        ps = [random_poly(rng, tower, 3, k) for _ in range(m)]
        assert casoratian(ps, k) == naive_poly.casoratian(ps, k)
    half = Fraction(1, 2)
    kappas = [tower.rational(1), tower.sqrt_gen(0) * half, tower.sqrt_gen(1) - half]
    for degrees in DEGREE_PATTERNS:
        for k in kappas:
            ps = []
            for d in degrees:
                coeffs = [random_element(rng, tower, 3, 0.4) for _ in range(d + 1)]
                coeffs[-1] = coeffs[-1] or tower.one
                ps.append(Polynomial(tower, coeffs))
            assert casoratian(ps, k) == naive_poly.casoratian(ps, k), (degrees, k)


def test_casoratian_matches_cofactor_expansion_on_every_tower(any_tower):
    """The Kronecker determinant against cofactors of the shifted rows, on
    every test tower, with a rational and an irrational kappa (the top root,
    whose basis table has a denominator in the tden tower).  Distinct degrees
    make the inputs independent, so no determinant is zero."""
    t = any_tower
    rng = random.Random(73)
    for k in (t.rational(Fraction(-3, 2)), t.sqrt_gen(t.depth - 1) + Fraction(1, 3)):
        for m in range(1, 6):
            ps = []
            for d in rng.sample(range(5), m):
                coeffs = [random_element(rng, t, 3, 0.4) for _ in range(d + 1)]
                coeffs[-1] = coeffs[-1] or t.one
                ps.append(Polynomial(t, coeffs))
            det = casoratian(ps, k)
            assert det == naive_poly.casoratian(ps, k) and not det.is_zero(), (m, k)


@pytest.mark.parametrize("m", [KRONECKER_MAX_M, KRONECKER_MAX_M + 1])
def test_casoratian_on_both_sides_of_the_size_rule(tower, monkeypatch, m):
    """m = M runs the Kronecker determinant and m = M + 1 Bareiss on the
    Delta rows; both agree with the scalar determinants of the shifted
    entries at more points than C's degree bound (cofactors would take m!
    products).  Degrees below m - 1 zero some of Bareiss's first pivot
    candidates."""
    routes = []

    def spy(name):
        real = getattr(diffrad.mason, name)

        def run(*args):
            routes.append(name)
            return real(*args)

        return run

    for name in ("_casoratian_kronecker", "_det_bareiss"):
        monkeypatch.setattr(diffrad.mason, name, spy(name))
    rng = random.Random(79)
    for k in (tower.rational(Fraction(1, 2)), tower.sqrt_gen(2) - 1):
        ps = []
        for d in rng.sample(range(m + 2), m):
            coeffs = [random_element(rng, tower, 2, 0.2) for _ in range(d + 1)]
            coeffs[-1] = coeffs[-1] or tower.one
            ps.append(Polynomial(tower, coeffs))
        cas = casoratian(ps, k)
        bound = sum(int(p.degree) for p in ps) - m * (m - 1) // 2
        assert not cas.is_zero() and cas.degree <= bound
        for x in range(bound + 1):
            assert naive_poly.eval_at(cas, x) == naive_poly.casoratian_value(ps, k, x), (k, x)
    side = "_casoratian_kronecker" if m <= KRONECKER_MAX_M else "_det_bareiss"
    assert routes == [side, side]


def test_casoratian_of_subfield_input_on_a_depth_8_tower(tower):
    """Inputs from the default tower lifted into the depth-8 tower of the
    CLI's five --adjoin flags: most of the 256 coordinates are zero.  The
    answer is the subtower's Casoratian lifted, and cofactors agree."""
    deep = tower
    for d in (5, 7, 11, 13, 17):
        deep = deep.adjoin_sqrt(d)
    rng = random.Random(83)
    ps = []
    for d in (1, 3, 4):
        coeffs = [random_element(rng, tower, 3, 0.5) for _ in range(d + 1)]
        coeffs[-1] = coeffs[-1] or tower.one
        ps.append(Polynomial(tower, coeffs))

    def lift(p):
        return Polynomial(deep, [c.lift_to(deep) for c in p.coeffs])

    lifted = [lift(p) for p in ps]
    for k in (tower.rational(Fraction(-1, 3)), tower.sqrt_gen(0) + 2):
        assert casoratian(lifted, k.lift_to(deep)) == lift(casoratian(ps, k))
    root5 = deep.sqrt_gen(3)
    det = casoratian(lifted, root5)
    assert det == naive_poly.casoratian(lifted, root5) and not det.is_zero()


@pytest.mark.parametrize(
    "kappa, degree, c",
    [(1, 3, 3**40), (Fraction(1, 2), 5, -(3**37))],
    ids=["kappa=1", "kappa=1/2"],
)
def test_kronecker_bound_is_tight_at_one_term(tower, kappa, degree, c):
    """m = 1 and p = c*z^d with c rational: the entry is c * s^d * X^d, and
    the bound H = |c| * s^d is that digit itself.  Its 64 bits need a second
    64-bit word for the sign; a bound one bit short would read the digit
    back wrong."""
    s = Fraction(kappa).denominator * tower._tden
    assert (abs(c) * s**degree).bit_length() == 64
    p = Polynomial(tower, [0] * degree + [c])
    assert casoratian([p], kappa) == p


def test_determinant_routes_agree_on_matrices(tower):
    from diffrad.mason import _det_bareiss

    rng = random.Random(72)
    for _ in range(20):
        n = rng.randint(1, 3)
        mat = [[random_poly(rng, tower, 2) for _ in range(n)] for _ in range(n)]
        assert _det_bareiss([row[:] for row in mat]) == naive_poly.det_cofactor(mat)


def test_casoratian_alternating_and_linear(tower):
    rng = random.Random(73)
    for _ in range(25):
        k = random_kappa(rng, tower)
        a = random_poly(rng, tower, 3, k)
        b = random_poly(rng, tower, 3, k)
        c = random_poly(rng, tower, 3, k)
        assert casoratian([a, b, c], k) == -casoratian([b, a, c], k)
        assert casoratian([a, b, a], k).is_zero()
        alpha = random_element(rng, tower, 3, 0.3)
        lhs = casoratian([a.scale(alpha) + b, c], k)
        assert lhs == casoratian([a, c], k).scale(alpha) + casoratian([b, c], k)


def test_casoratian_nonzero_iff_independent(tower):
    rng = random.Random(74)
    independent = dependent = 0
    for trial in range(200):
        k = random_kappa(rng, tower)
        if trial % 2 == 0:
            ps = [random_poly(rng, tower, 3, k) for _ in range(rng.randint(2, 3))]
        else:
            a = random_poly(rng, tower, 3, k)
            b = random_poly(rng, tower, 3, k)
            alpha = random_element(rng, tower, 3, 0.3)
            beta = random_element(rng, tower, 2, 0.3)
            ps = [a, b, a.scale(alpha) + b.scale(beta)]
            if ps[-1].is_zero():
                ps[-1] = a
        indep = naive_poly.linearly_independent(ps)
        cas = casoratian(ps, k)
        assert indep == (not cas.is_zero()) == linearly_independent(ps)
        independent += indep
        dependent += not indep
    assert independent >= 50 and dependent >= 50


def test_casoratian_degree_bookkeeping(tower):
    rng = random.Random(75)
    for trial in range(40):
        k = random_kappa(rng, tower)
        m = 2 + trial % 3
        ps = list(random_mason_tuple(rng, tower, k, m)[:-1])
        cas = casoratian(ps, k)
        if cas.is_zero():
            continue
        total = sum(int(p.degree) for p in ps)
        assert cas.degree <= total - m * (m - 1) // 2


def test_triple_sharp_quadratic(tower):
    a = parse_poly("z^2 + z", tower)
    b = parse_poly("-(z^2 + 5*z + 6)", tower)
    c = a + b
    rep = check_mason_triple(a, b, c, 1)
    assert rep.statement is Statement.MASON_TRIPLE
    assert rep.hypotheses_ok
    assert rep.holds and rep.lhs == 2 and rep.rhs == 2 and rep.sharp
    assert rep.artifacts["n_tilde"] == [1, 1, 1]


def test_triple_rejects_bad_hypotheses(tower):
    z = Polynomial.variable(tower)
    # shared factor z
    rep = check_mason_triple(z * z, z, z * z + z, 1)
    assert not rep.hypotheses_ok and rep.holds is None
    assert any("coprime" in h.name and not h.passed for h in rep.hypotheses)
    # wrong sum
    rep = check_mason_triple(z, z + 1, z, 1)
    assert not rep.hypotheses_ok
    # all constant
    one = Polynomial(tower, (1,))
    rep = check_mason_triple(one, one, one + one, 1)
    assert not rep.hypotheses_ok
    # zero input short-circuits
    rep = check_mason_triple(Polynomial.zero(tower), z, z, 1)
    assert not rep.hypotheses_ok and len(rep.hypotheses) == 1
    with pytest.raises(ZeroShiftError):
        check_mason_triple(z, z + 1, z + z + 1, 0)


def test_triple_holds_bulk(tower):
    rng = random.Random(76)
    for _ in range(40):
        k = random_kappa(rng, tower)
        a, b, c = random_mason_triple(rng, tower, k)
        rep = check_mason_triple(a, b, c, k)
        assert rep.hypotheses_ok and rep.holds


def test_multi_four_term_order_gap(tower):
    i = tower.sqrt_gen(0)
    s2 = tower.sqrt_gen(1)
    parts = [
        parse_poly("z^2 - 4", tower),
        parse_poly("z^2 + 4", tower),
        Polynomial(tower, (0, 0, i * s2)),
    ]
    summands = [p * p.taylor_shift(1) for p in parts]
    total = Polynomial.zero(tower)
    for p in summands:
        total = total + p
    assert total == Polynomial(tower, (32,))
    ps = summands + [total]
    rep = check_mason_multi(ps, 1)
    assert rep.hypotheses_ok and rep.holds
    assert rep.lhs == 4 and rep.rhs == 9
    assert rep.artifacts["n_tilde"] == [4, 4, 4, 0]
    assert rep.artifacts["casoratian_divisible_by_gcd_product"] is True
    # the order-2 radical sum is too small here: 6 - 3 < 4
    crude = sum(n_tilde(p, 1, 2) for p in summands)
    assert crude == 6 and crude - 3 < rep.lhs


def test_multi_hypothesis_failures(tower):
    z = Polynomial.variable(tower)
    ps = [z, z + 1, z + z + 2]
    rep = check_mason_multi([z, z.scale(tower.rational(2)), z + z + z], 1)
    assert not rep.hypotheses_ok  # common factor z: coprimality fails before independence
    rep = check_mason_multi([z, z + 1, z], 1)
    assert not rep.hypotheses_ok  # sum mismatch
    # coprime but dependent summands (2 = 2 * 1, z + 1 = z + 1): the Casoratian vanishes
    one = Polynomial.constant(tower.one)
    for ps in ([one, one.scale(tower.rational(2)), one.scale(tower.rational(3))],
               [z, one, z + 1, z + z + 2]):
        rep = check_mason_multi(ps, 1)
        assert rep.hypotheses[-1].name == "independent"
        assert not rep.hypotheses[-1].passed and rep.holds is None
        assert [h.passed for h in rep.hypotheses[:-1]] == [True] * 3
    with pytest.raises(ValueError):
        check_mason_multi([z, z + 1], 1)


def test_multi_coprimality_modes(tower):
    z = Polynomial.variable(tower)
    # z appears twice but not in every entry: setwise passes, pairwise fails
    ps = [z, z + 1, z + z + 1]
    doubled = [z, z.scale(tower.rational(2)) + 1, z + z.scale(tower.rational(2)) + 1]
    assert setwise_coprime(doubled)
    ok, witness = pairwise_coprime([z, z * (z + 1), z + 1])
    assert not ok and witness is not None and witness.degree >= 1
    rep = check_mason_multi(doubled, 1, coprimality="setwise")
    assert rep.hypotheses_ok
    with pytest.raises(ValueError):
        check_mason_multi(ps, 1, coprimality="sideways")


def test_setwise_verdict_takes_one_gcd(tower, monkeypatch):
    """The setwise gcd gives both the verdict and the witness of a shared
    factor, so it runs once."""
    calls = []
    multi_gcd = diffrad.mason.multi_gcd

    def spy(ps):
        calls.append(len(ps))
        return multi_gcd(ps)

    monkeypatch.setattr(diffrad.mason, "multi_gcd", spy)
    z = Polynomial.variable(tower)
    ps = [z * (z + 1), z * (z - 2), z * z]
    hyp = _coprime_hypothesis(ps, "setwise")
    assert not hyp.passed and hyp.detail == "common factor z"
    assert calls == [3]


def test_multi_holds_bulk(tower):
    rng = random.Random(77)
    for m in (2, 3, 4):
        for _ in range(12):
            k = random_kappa(rng, tower)
            ps = random_mason_tuple(rng, tower, k, m)
            rep = check_mason_multi(ps, k)
            assert rep.hypotheses_ok and rep.holds
            assert rep.artifacts["casoratian_divisible_by_gcd_product"] is True


def test_shift_gcd_factor_matches_radical_cofactor(tower):
    rng = random.Random(78)
    from diffrad import diff_radical_m

    for trial in range(30):
        k = random_kappa(rng, tower)
        p = random_poly(rng, tower, 5, k)
        m = 2 + trial % 3
        assert shift_gcd_factor(p, k, m) == diff_radical_m(p, k, m).cofactor
