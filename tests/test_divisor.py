"""Zero divisors, disc counting, truncation and per-point order checks."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import diffrad.divisor
import diffrad.field
import diffrad.poly
import naive_poly
from diffrad import (
    DependentInputsError,
    Divisor,
    FactoredPoly,
    FieldElement,
    FieldTower,
    N_integrated,
    N_tilde_q_integrated,
    NonPositiveMultiplicityError,
    ZeroShiftError,
    ZeroSumError,
    check_ord_inequality,
    check_truncation,
    compare_real,
    diff_radical_from_roots,
    divisor_of,
    factorial_divisor,
    n_count,
    n_tilde_q,
    shift_divisor,
)
from diffrad.divisor import counting_table
from diffrad.errors import EnclosureWidthError
from diffrad.generators import (
    random_divisor,
    random_factored,
    random_kappa,
    random_ord_inputs,
)

INTEGRATION_TOL = 1e-9


def test_construction_merges_and_coerces(tower):
    D = Divisor(tower, [(0, 2), (Fraction(1, 2), 1), (tower.rational(0), 3)])
    assert D.multiplicity(0) == 5
    assert D.multiplicity(Fraction(1, 2)) == 1
    assert D.multiplicity(7) == 0
    assert D.total() == 6
    assert len(D) == 2 and bool(D)

    assert Divisor(tower, {0: 2}) == Divisor(tower, [(0, 1), (0, 1)])
    assert hash(Divisor(tower, {0: 2})) == hash(Divisor(tower, [(0, 1), (0, 1)]))

    E = Divisor.empty(tower)
    assert len(E) == 0 and not E and E.total() == 0
    assert n_count(E, 100) == 0

    pts = Divisor(tower, {3: 1, -1: 2, 0: 1}).support()
    assert list(pts) == sorted(pts, key=lambda e: e.coords)


def _random_points(rng, t, count):
    """Distinct points of t: mixed denominators, negative coordinates, and
    elements lifted from the prefix subtowers Q, Q(i) and Q(i, sqrt(2))."""
    subs = [FieldTower.rationals()]
    subs += [subs[-1].adjoin_sqrt(-1)]
    subs += [subs[-1].adjoin_sqrt(2)]
    assert all(t.extends(sub) for sub in subs)
    points = set()
    while len(points) < count:
        src = rng.choice(subs + [t, t])
        coords = [
            Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 9))) if rng.random() < 0.7 else 0
            for _ in range(src.dim)
        ]
        points.add(src.element(coords).lift_to(t))
    return list(points)


def test_divisor_items_are_in_coordinate_order(any_tower):
    rng = random.Random(58)
    for _ in range(30):
        points = _random_points(rng, any_tower, rng.randint(1, 12))
        D = Divisor(any_tower, [(w, rng.randint(1, 3)) for w in points])
        expected = sorted(points, key=lambda e: e.coords)
        assert [w for w, _ in D.items()] == expected == list(D.support())


def test_ord_inequality_points_are_in_coordinate_order(any_tower, monkeypatch):
    visited = []
    excess = diffrad.divisor.shift_window_excess

    def spy(order, w, kappa, m):
        if not visited or visited[-1] != w:
            visited.append(w)
        return excess(order, w, kappa, m)

    monkeypatch.setattr(diffrad.divisor, "shift_window_excess", spy)
    rng = random.Random(59)
    t = any_tower
    for m in (2, 3):
        points = _random_points(rng, t, 3 * m)
        gs = [FactoredPoly(t.one, [(w, 1) for w in points[j::m]]) for j in range(m)]
        kappa = _random_points(rng, t, 1)[0] or t.one
        visited.clear()
        report = check_ord_inequality(gs, kappa)
        assert report.hypotheses_ok
        candidates = {w + kappa * i for g in gs for w in g.roots() for i in range(m)}
        assert visited == sorted(candidates, key=lambda e: e.coords)


def test_ord_inequality_evaluates_each_dense_order_once(tower, monkeypatch):
    """The dense sum and the Casoratian are Horner-evaluated once per point,
    although lhs_w and the shift windows both ask for ord_w of the sum."""
    asked = []
    dense_ord_at = diffrad.poly.Polynomial.ord_at

    def spy(p, w):
        asked.append((id(p), w))
        return dense_ord_at(p, w)

    monkeypatch.setattr(diffrad.poly.Polynomial, "ord_at", spy)
    rng = random.Random(61)
    for m in (2, 3, 2, 3):
        kappa = random_kappa(rng, tower)
        gs = random_ord_inputs(rng, tower, kappa, m)
        asked.clear()
        report = check_ord_inequality(gs, kappa)
        assert report.hypotheses_ok
        assert len(asked) == len(set(asked)) == 2 * report.artifacts["points_checked"]


def test_rejects_bad_multiplicities_and_points(tower):
    for mult in (0, -1, Fraction(3, 2), "2"):
        with pytest.raises(NonPositiveMultiplicityError):
            Divisor(tower, [(0, mult)])

    rational_pt = FieldTower.rationals().rational(Fraction(1, 2))
    assert Divisor(tower, [(rational_pt, 1)]).multiplicity(Fraction(1, 2)) == 1
    foreign = FieldTower.rationals().adjoin_sqrt(5).sqrt_gen(0)
    with pytest.raises(ValueError):
        Divisor(tower, [(foreign, 1)])

    D = Divisor(tower, {0: 1})
    with pytest.raises(AttributeError):
        D.tower = tower


def test_translate(tower):
    D = Divisor(tower, {0: 2, 3: 1})
    assert D.translate(-3) == Divisor(tower, {-3: 2, 0: 1})
    assert D.translate(0) == D


def test_divisor_of_and_shift_consistency(tower):
    rng = random.Random(51)
    for _ in range(20):
        kappa = random_kappa(rng, tower)
        f = random_factored(rng, tower, kappa)
        D = divisor_of(f)
        assert D.total() == f.degree
        for w, c in D.items():
            assert f.ord_at(w) == c
        # divisor of f(z + kappa) is the support moved backwards
        shifted = naive_poly.shift_roots(f, -kappa)
        assert shift_divisor(D, kappa) == divisor_of(shifted)


def test_factorial_divisor_shape(tower):
    D = Divisor(tower, {0: 2, 5: 1})
    F = factorial_divisor(D, 2, 3)
    assert F == Divisor(tower, {0: 2, -2: 2, -4: 2, 5: 1, 3: 1, 1: 1})
    assert F.total() == 3 * D.total()
    with pytest.raises(ZeroShiftError):
        factorial_divisor(D, 0, 2)
    with pytest.raises(ValueError):
        factorial_divisor(D, 1, 0)


def test_n_count_closed_disc(tower):
    i = tower.sqrt_gen(0)
    on_circle = tower.rational(Fraction(3, 5)) + i * tower.rational(Fraction(4, 5))
    D = Divisor(tower, [(on_circle, 2), (0, 1)])
    assert n_count(D, 0) == 1
    assert n_count(D, Fraction(99, 100)) == 1
    assert n_count(D, 1) == 3
    with pytest.raises(ValueError):
        n_count(D, -1)


def test_n_count_monotone_in_radius(tower):
    rng = random.Random(52)
    for _ in range(15):
        kappa = random_kappa(rng, tower)
        D = random_divisor(rng, tower, kappa)
        counts = [n_count(D, r) for r in (0, 1, 2, 3, 100)]
        assert counts == sorted(counts)
        assert counts[-1] == D.total()


def test_truncated_count_worked_example(tower):
    D = Divisor(tower, {0: 2, 1: 1, 2: 3})
    assert [n_count(D, r) for r in (1, 2, 3)] == [3, 6, 6]
    assert [n_tilde_q(D, 1, 1, r) for r in (1, 2, 3)] == [1, 4, 4]
    with pytest.raises(ValueError):
        n_tilde_q(D, 1, 0, 1)
    with pytest.raises(ZeroShiftError):
        n_tilde_q(D, 0, 1, 1)


def test_truncated_count_bounds(tower):
    rng = random.Random(53)
    for _ in range(20):
        kappa = random_kappa(rng, tower)
        D = random_divisor(rng, tower, kappa)
        r = rng.choice([1, 2, Fraction(7, 2), 10])
        values = [n_tilde_q(D, kappa, q, r) for q in (1, 2, 3, 4)]
        assert all(v <= n_count(D, r) for v in values)
        # widening the truncation window can only lower the min being subtracted
        assert values == sorted(values)


def test_truncated_count_agrees_with_radical(tower):
    rng = random.Random(54)
    for _ in range(20):
        kappa = random_kappa(rng, tower)
        f = random_factored(rng, tower, kappa)
        if f.degree == 0:
            continue
        m = rng.choice([2, 3, 4])
        expected = diff_radical_from_roots(f, kappa, m).n_tilde
        assert n_tilde_q(divisor_of(f), kappa, m - 1, 10 ** 6) == expected


def test_integrated_count_log_oracle(tower):
    D = Divisor(tower, {1: 1, -2: 3})
    cv = N_integrated(D, 5)
    oracle = math.log(5) + 3 * math.log(Fraction(5, 2))
    assert cv.n_value == 4
    assert abs(cv.N_value - oracle) <= cv.error + 1e-12
    assert cv.error <= INTEGRATION_TOL

    # origin term carries a bare log r
    D0 = Divisor(tower, {0: 2, 3: 1})
    cv0 = N_integrated(D0, 4)
    assert abs(cv0.N_value - (2 * math.log(4) + math.log(Fraction(4, 3)))) <= cv0.error + 1e-12

    # a support point on the boundary circle contributes nothing
    cvb = N_integrated(Divisor(tower, {2: 1}), 2)
    assert cvb.N_value == 0.0 and cvb.n_value == 1

    # below radius 1 the origin weight goes negative
    cvn = N_integrated(Divisor(tower, {0: 1}), Fraction(1, 2))
    assert abs(cvn.N_value - math.log(0.5)) <= cvn.error + 1e-12


def test_integrated_counts_carry_exact_values(tower):
    rng = random.Random(55)
    for _ in range(10):
        kappa = random_kappa(rng, tower)
        D = random_divisor(rng, tower, kappa)
        r = rng.choice([Fraction(1, 2), 1, 3])
        q = rng.randint(1, 3)
        assert N_integrated(D, r).n_value == n_count(D, r)
        assert N_tilde_q_integrated(D, kappa, q, r).n_value == n_tilde_q(D, kappa, q, r)


def test_check_truncation_random(tower):
    rng = random.Random(56)
    for _ in range(12):
        kappa = random_kappa(rng, tower)
        D = random_divisor(rng, tower, kappa)
        if not D:
            continue
        report = check_truncation(D, kappa, rng.randint(1, 3), rng.randint(1, 2), [10, 1, 5, 2, 5])
        assert report.holds and report.exit_code() == 0
        assert [row["r"] for row in report.artifacts["per_radius"]] == ["1", "2", "5", "10"]
        for row in report.artifacts["per_radius"]:
            assert row["n_holds"] and row["N_holds"]
            assert row["N_error"] <= INTEGRATION_TOL


def test_check_truncation_below_radius_one_has_no_verdict(tower):
    # at r = 1/2 the integrated sides genuinely cross even though the counts
    # stay ordered, so rows below radius 1 report values without a verdict
    D = Divisor(tower, {0: 3, 3: 4, -3: 1, 4: 2})
    report = check_truncation(D, 2, 3, 2, [Fraction(1, 2), 2])
    rows = report.artifacts["per_radius"]
    assert rows[0]["r"] == "1/2"
    assert rows[0]["n_holds"] is True
    assert rows[0]["N_holds"] is None
    assert rows[0]["N_lhs"] > rows[0]["N_rhs"] + rows[0]["N_error"]
    assert rows[1]["N_holds"] is True
    assert report.holds is True


def test_exact_tie_with_q_3_holds(tower):
    # With n = q = 3 the truncated factorial weights are exactly the three
    # shifted copies of D, that is the order-3 factorial divisor itself, so
    # both sweeps add the same integers and round them to the same value.
    i = tower.sqrt_gen(0)
    w = Fraction(-3, 2) - i
    D = Divisor(tower, {w: 1, w + 5 * i: 2})
    report = check_truncation(D, 1, 3, 3, [1, 2, 3, 5, 7, 10])
    assert report.artifacts["factorial_support"] == len(factorial_divisor(D, 1, 3)) == 6
    rows = report.artifacts["per_radius"]
    assert all(row["N_holds"] is True for row in rows)
    assert all(abs(row["N_lhs"] - row["N_rhs"]) <= row["N_error"] <= 1e-14 for row in rows)
    tie = next(row for row in rows if row["r"] == "5")
    assert tie["N_lhs"] == tie["N_rhs"]
    assert report.holds is True


def _oracle_rows(D, kappa, q, n, radii):
    """check_truncation's rows from one compare_real per (point, radius) and math.log."""
    def count(weights, r):
        return sum(c for w, c in weights if compare_real(w.abs_squared(), r * r) <= 0)

    def integral(weights, r):
        total = 0.0
        for w, c in weights:
            if w.is_zero():
                total += c * math.log(r)
            elif compare_real(w.abs_squared(), r * r) < 0:
                total += c * (math.log(r) - 0.5 * math.log(complex(w.abs_squared()).real))
        return total

    fact = factorial_divisor(D, kappa, n)
    lhs = [(w, c - min(fact.multiplicity(w + kappa * j) for j in range(q + 1)))
           for w, c in fact.items()]
    shifted = [list(shift_divisor(D, kappa * i).items()) for i in range(q)]
    return [
        (str(r), count(lhs, r), sum(count(S, r) for S in shifted),
         integral(lhs, r), sum(integral(S, r) for S in shifted))
        for r in sorted(set(radii))
    ]


def _overlapping_divisor(tower):
    """Support points one step of kappa = 1 or kappa = i apart, so the factorial
    divisor and the shifted copies of a truncation check share points.  The
    origin, 1, 2, 3 + 4i and 4 + 3i = (4 + 4i) - i lie on the circles
    |w| = 0, 1, 2, 5 of the radius lists below; (1 + sqrt(2))^2 and
    (2 + sqrt(2))^2 are irrational."""
    i, s2 = tower.sqrt_gen(0), tower.sqrt_gen(1)
    return Divisor(
        tower, {0: 2, 1: 1, 2: 3, 3 + 4 * i: 1, 4 + 4 * i: 2, 4 + 5 * i: 1, 1 + s2: 1, 2 + s2: 2}
    )


def test_check_truncation_rows_match_pointwise_oracle(tower):
    i, s2 = tower.sqrt_gen(0), tower.sqrt_gen(1)
    # the origin, |3 + 4i| = 5 and |2| = 2 on circles of the radius list,
    # an irrational |1 + sqrt(2)| and a point inside the unit disc
    D = Divisor(tower, {0: 2, 3 + 4 * i: 1, 2: 3, 1 + s2: 1, Fraction(-1, 2) + i / 2: 2})
    lattice = _overlapping_divisor(tower)
    radii = [5, Fraction(1, 2), 2, 2, Fraction(3, 4), 1, 10, 5, 3]
    cases = [(D, kappa, q, n) for kappa in (1, i, Fraction(-3, 2))
             for q, n in ((1, 1), (2, 2), (3, 1))]
    cases += [(lattice, kappa, q, n) for kappa in (1, i) for q, n in ((2, 3), (3, 3), (3, 2))]
    for div, kappa, q, n in cases:
        rows = check_truncation(div, kappa, q, n, radii).artifacts["per_radius"]
        oracle = _oracle_rows(div, kappa, q, n, radii)
        assert [row["r"] for row in rows] == ["1/2", "3/4", "1", "2", "3", "5", "10"]
        for row, (r, n_lhs, n_rhs, N_lhs, N_rhs) in zip(rows, oracle, strict=True):
            assert (row["r"], row["n_lhs"], row["n_rhs"]) == (r, n_lhs, n_rhs)
            gap = abs(row["N_lhs"] - N_lhs) + abs(row["N_rhs"] - N_rhs)
            assert gap <= row["N_error"] + 1e-12
            assert row["N_error"] <= INTEGRATION_TOL
            assert row["n_holds"] == (n_lhs <= n_rhs)
            assert row["N_holds"] is (None if Fraction(r) < 1 else True)
    # a point on the circle adds exactly nothing, not a value within its error
    on_circle = N_integrated(Divisor(tower, {3 + 4 * i: 2}), 5)
    assert (on_circle.n_value, on_circle.N_value, on_circle.error) == (2, 0.0, 0.0)
    # one-radius calls are the same sweep
    for r in (2, 5, Fraction(1, 2)):
        (_, n_val, _, N_val, _), = _oracle_rows(D, 1, 1, 1, [r])
        cv = N_tilde_q_integrated(D, 1, 1, r)
        assert cv.n_value == n_val == n_tilde_q(D, 1, 1, r)
        assert abs(cv.N_value - N_val) <= cv.error + 1e-12


class _Spy:
    """Records the points the counting kernel places, the |w|^2 it hands the
    exact comparison, and the values it hands the enclosure kernel
    field.scaled_box, under both names the package calls it by."""

    def __init__(self, monkeypatch):
        self.placed, self.compared, self.boxed = Counter(), Counter(), Counter()
        compare, kernel = diffrad.divisor.compare_real, diffrad.field.scaled_box
        abs_squared = FieldElement.abs_squared

        def spy_abs_squared(w):
            self.placed[w] += 1
            return abs_squared(w)

        def spy_compare(a, b):
            self.compared[a] += 1
            return compare(a, b)

        def spy_kernel(x, *args):
            self.boxed[x] += 1
            return kernel(x, *args)

        monkeypatch.setattr(FieldElement, "abs_squared", spy_abs_squared)
        monkeypatch.setattr(diffrad.divisor, "compare_real", spy_compare)
        monkeypatch.setattr(diffrad.field, "scaled_box", spy_kernel)
        monkeypatch.setattr(diffrad.divisor, "scaled_box", spy_kernel)

    def assert_each_point_once(self, points, radii):
        """Each distinct point is placed once (one |w|^2 per point), no radius
        needs the exact comparison (every point is well separated from every
        circle), and each distinct irrational |w|^2 is boxed once: its
        placement and, strictly inside the largest radius, its logarithm
        read the same box."""
        assert self.placed == Counter(set(points))
        assert not self.compared
        irrational = {
            a for a in map(FieldElement.abs_squared, set(points)) if not a.is_rational()
        }
        top = max(radii) ** 2
        assert any(compare_real(a, top) < 0 for a in irrational)  # a log reads a box
        assert self.boxed == Counter(irrational)
        self.placed.clear()
        self.boxed.clear()


def test_one_table_per_check_places_and_encloses_each_point_once(tower, monkeypatch):
    D = _overlapping_divisor(tower)
    radii = [10, Fraction(1, 2), 1, 2, 3, 5, 6]
    spy = _Spy(monkeypatch)
    for kappa in (tower.one, tower.sqrt_gen(0)):
        for q, n in itertools.product((1, 2, 3), repeat=2):
            fact = factorial_divisor(D, kappa, n)
            lhs = {w for w, c in fact.items()
                   if c > min(fact.multiplicity(w + kappa * j) for j in range(q + 1))}
            shifted = {w - kappa * i for w in D.support() for i in range(q)}
            assert lhs & shifted  # the sweeps overlap
            check_truncation(D, kappa, q, n, radii)
            spy.assert_each_point_once(lhs | shifted, radii)
            counting_table(D, kappa, q, radii)
            spy.assert_each_point_once(D.support(), radii)
    # w, -w and conj(w) are three points with one irrational |w|^2: one box.
    w = 1 + tower.sqrt_gen(1) + 2 * tower.sqrt_gen(0)
    E = Divisor(tower, {w: 1, -w: 2, w.conj(): 1})
    counting_table(E, 1, 2, radii)
    spy.assert_each_point_once(E.support(), radii)


def _oracle_place(w, radii):
    """(k, tie) by exact comparisons alone, radius by radius: the first
    closed disc that holds w, and whether w lies on its circle.  The origin
    is placed in the first disc and never on a circle (its log r term is
    separate)."""
    if not w:
        return 0, False
    abs_sq = w.abs_squared()
    for k, r in enumerate(sorted(set(map(Fraction, radii)))):
        side = compare_real(abs_sq, r * r)
        if side <= 0:
            return k, side == 0
    return len(set(radii)), False


def _sqrt2_convergents(max_den):
    """Continued-fraction convergents p/q of sqrt(2) with q <= max_den; they
    alternate below and above it, |sqrt(2) - p/q| < 1/(2 q^2)."""
    out, (p0, q0), (p1, q1) = [], (1, 1), (3, 2)
    while q0 <= max_den:
        out.append(Fraction(p0, q0))
        (p0, q0), (p1, q1) = (p1, q1), (2 * p1 + p0, 2 * q1 + q0)
    return out


def _spied_places(monkeypatch, table, points):
    calls = []
    compare = diffrad.divisor.compare_real

    def spy(a, b):
        calls.append((a, b))
        return compare(a, b)

    monkeypatch.setattr(diffrad.divisor, "compare_real", spy)
    places = [table.place(w)[1:] for w in points]
    monkeypatch.undo()
    return places, calls


def test_placement_decides_rational_ties_exactly(tower, monkeypatch):
    i = tower.sqrt_gen(0)
    cases = [
        (3 + 4 * i, [1, 5, 7]),
        ((3 + 4 * i) / 5, [Fraction(1, 2), 1, 2]),
        ((3 + 4 * i) / 5, [1]),
        (tower.rational(Fraction(9, 4)), [Fraction(3, 2), Fraction(3, 1)]),
        (tower.zero, [0, 1]),
    ]
    for w, radii in cases:
        places, calls = _spied_places(monkeypatch, diffrad.divisor._Table(radii), [w])
        assert places == [_oracle_place(w, radii)]
        assert not calls
    assert _oracle_place(3 + 4 * i, [1, 5, 7]) == (1, True)
    assert _oracle_place((3 + 4 * i) / 5, [1]) == (0, True)


def test_placement_falls_back_to_exact_signs_inside_the_enclosure(tower, monkeypatch):
    # |1 + sqrt(2)|^2 = 3 + 2 sqrt(2) against r = 1 + p/q for the last two
    # convergents up to 2^46: |r^2 - (3 + 2 sqrt(2))| < 2^-80 on either side,
    # far inside any enclosure at the table's 64 working bits.
    s2 = tower.sqrt_gen(1)
    w = 1 + s2
    below, above = sorted(1 + c for c in _sqrt2_convergents(1 << 46)[-2:])
    for r in (below, above):
        gap = abs(float(r * r - 3) - 2 * math.sqrt(2))
        assert gap < 2.0 ** -40 and compare_real(w.abs_squared(), r * r) != 0
    exact = 3 + 2 * s2 - below * below, above * above - 3 - 2 * s2
    assert all(d.sign_real() > 0 and compare_real(d, Fraction(1, 2 ** 80)) < 0 for d in exact)
    for radii in ([below], [above], [1, below, above, 3], [below, 5], [Fraction(1, 2), above]):
        table = diffrad.divisor._Table(radii)
        places, calls = _spied_places(monkeypatch, table, [w, -w, w.conj(), 2 + s2])
        assert places == [_oracle_place(x, radii) for x in (w, -w, w.conj(), 2 + s2)]
        assert calls and {a for a, _ in calls} == {w.abs_squared()}
    D = Divisor(tower, {w: 2, 2 + s2: 1, 0: 1})
    rows = check_truncation(D, 1, 2, 2, [1, below, above, 4]).artifacts["per_radius"]
    # 1 + sqrt(2) itself (twice) and the shifted copy of 2 + sqrt(2) lie between.
    assert rows[2]["n_rhs"] - rows[1]["n_rhs"] == 3


def test_placement_without_an_enclosure_uses_exact_signs(monkeypatch):
    # sqrt(2) - p/q is about 2^-91, so at the table's first working precision
    # the bounds of that radicand do not clear 0 and the tower's bounds table
    # stops before its root; the kernel boxes elements that use the root only
    # at a doubled precision.  With the cap lowered below that precision it
    # cannot box them at all, and every radius goes to the exact signs.
    base = FieldTower.rationals().adjoin_sqrt(-1).adjoin_sqrt(2)
    c = next(c for c in reversed(_sqrt2_convergents(1 << 46)) if c * c < 2)
    top = base.adjoin_sqrt(base.sqrt_gen(1) - c)
    eps = top.gen_radicand(2)
    assert 0 < eps.sign_real() and compare_real(eps, Fraction(1, 2 ** 88)) < 0
    i, s2, t = top.sqrt_gen(0), top.sqrt_gen(1), top.sqrt_gen(2)
    table = diffrad.divisor._Table([Fraction(1, 2), 1, Fraction(3, 2), 2, 3])
    abs_sq = (1 + t) * (1 + t)
    bits = diffrad.divisor._BOX_BITS
    assert len(top._bounds(bits + 4)) < top.dim
    diffrad.field.scaled_box(abs_sq, bits)  # boxed past the early stop
    low_cap = 2 * bits
    monkeypatch.setattr(diffrad.field, "MAX_ENCLOSURE_BITS", low_cap)
    with pytest.raises(EnclosureWidthError):
        diffrad.field.scaled_box(abs_sq, bits)
    points = [1 + t, 1 - t, (1 + t) * i, s2 + t, 2 + 3 * t, Fraction(3, 2) * (1 + t)]
    places, calls = _spied_places(monkeypatch, table, points)  # undoes the cap
    assert places == [_oracle_place(w, table.radii) for w in points]
    assert len({a for a, _ in calls}) == len({w.abs_squared() for w in points})
    # Counts never need a box; the integrals need one and raise without it.
    D = Divisor(top, {1 + t: 1, 2 + 3 * t: 2})
    monkeypatch.setattr(diffrad.field, "MAX_ENCLOSURE_BITS", low_cap)
    assert n_count(D, 3) == 3
    with pytest.raises(EnclosureWidthError):
        N_integrated(D, 3)
    monkeypatch.undo()
    N = N_integrated(D, 3)
    assert N.n_value == 3 and N.error < 1e-9


def _pell_point(tower):
    """(p - q sqrt(2), p, q) for the first p^2 - 2 q^2 = +-1 with q > 2^33:
    |w| = 1/(p + q sqrt(2)) is about 2^-35.5, and |w|^2 has numerators of
    about 2^69."""
    p, q = 1, 1
    while q <= 1 << 33:
        p, q = p + 2 * q, p + q
    return p - q * tower.sqrt_gen(1), p, q


def test_box_touching_zero_is_refined(tower, monkeypatch):
    # |w|^2, about 2^-71, lies below the 2^-64 width of the table's box, whose
    # low end is then <= 0: the logarithm takes the box again at double the
    # width bits.  A small value over a large denominator, such as
    # (1 + sqrt(2))/2^40, does not get there: the scale of its box carries
    # the denominator.
    w, p, q = _pell_point(tower)
    kernel, lows = diffrad.divisor.scaled_box, []

    def spy(x, bits):
        box, scale = kernel(x, bits)
        lows.append((bits, box[0]))
        return box, scale

    monkeypatch.setattr(diffrad.divisor, "scaled_box", spy)
    rows = counting_table(Divisor(tower, {w: 2, 3: 1}), 1, 1, [1, 2, 4])
    (b0, low0), (b1, low1) = lows
    assert (b0, b1) == (64, 128) and low0 <= 0 < low1
    log_abs_w = -math.log(p + q * math.sqrt(2))  # p^2 - 2 q^2 = +-1
    for r, plain, _ in rows:
        oracle = 2 * (math.log(r) - log_abs_w) + (math.log(r / 3) if r > 3 else 0)
        assert plain.n_value == (3 if r > 3 else 2)
        assert abs(plain.N_value - oracle) <= plain.error + 1e-12


def test_check_truncation_pins_its_N_values(tower):
    # N_lhs, N_rhs and N_error bit for bit (the benchmark digests drop floats).
    i, s2, s3 = (tower.sqrt_gen(k) for k in range(3))
    cases = [
        ({0: 2, 3 + 4 * i: 1, 2: 3, 1 + s2: 1, Fraction(-1, 2) + i / 2: 2}, 1, 2, 2,
         [Fraction(1, 2), 1, 2, 5, 10], [
             ("1/2", 0.0, -1.3862943611198906, 5.54517919942595e-16),
             ("1", 0.6931471805599453, 0.6931471805599453, 5.54517919942595e-16),
             ("2", 4.97546030288538, 7.7480490251251615, 5.0894060193843145e-15),
             ("5", 15.894294454572748, 22.33204610430915, 1.5290545274182517e-14),
             ("10", 25.598354982411983, 34.80869535438816, 2.4162832924735582e-14),
         ]),
        (_overlapping_divisor(tower), i, 3, 2, [Fraction(1, 2), 1, 2, 3, 5, 6, 10], [
            ("1/2", -1.3862943611198906, -1.3862943611198906, 1.10903583988519e-15),
            ("1", 0.0, 0.0, 0.0),
            ("2", 3.8123094930796992, 3.8123094930796992, 3.049848735178911e-15),
            ("3", 8.698479274793304, 9.979977376945266, 7.471394033254255e-15),
            ("5", 17.45794842980365, 23.289272547702584, 1.629890922761595e-14),
            ("6", 21.645697232755225, 29.847201588975572, 2.0597192018824767e-14),
            ("10", 34.862136886546885, 49.70437435172511, 3.3826637879788925e-14),
        ]),
        ({(s3 - 1) / 8: 2, s2 + s3 * i: 1, 1 + s2 * i: 3, Fraction(7, 3): 1}, s2, 1, 3,
         [1, Fraction(3, 2), 4, 7], [
             ("1", 4.782693799724544, 4.782693799724544, 3.826169227002475e-15),
             ("3/2", 5.593624015940872, 5.593624015940872, 4.474913953458629e-15),
             ("4", 11.18681907795736, 11.18681907795736, 8.949473131601245e-15),
             ("7", 15.104129593505318, 15.104129593505318, 1.2083323292236205e-14),
         ]),
        ({_pell_point(tower)[0]: 1, 3: 1, (1 + s2) / 2 ** 40: 2}, 1, 1, 1, [1, 2], [
            ("1", 78.36748770730374, 78.36748770730374, 6.269401124418344e-14),
            ("2", 80.44692924898358, 80.44692924898358, 6.435756500401123e-14),
        ]),
    ]
    for points, kappa, q, n, radii, expected in cases:
        D = points if isinstance(points, Divisor) else Divisor(tower, points)
        rows = check_truncation(D, kappa, q, n, radii).artifacts["per_radius"]
        assert [(row["r"], row["N_lhs"], row["N_rhs"], row["N_error"]) for row in rows] == expected


def test_counting_table_matches_one_radius_calls(tower):
    i, s2 = tower.sqrt_gen(0), tower.sqrt_gen(1)
    D = Divisor(tower, {0: 2, 3 + 4 * i: 1, 2: 3, 1 + s2: 1, Fraction(-1, 2) + i / 2: 2})
    radii = [5, Fraction(1, 2), 2, 2, Fraction(3, 4), 1, 10, 5, 3]
    for kappa, q in ((1, 1), (i, 2), (Fraction(-3, 2), 3)):
        table = counting_table(D, kappa, q, radii)
        assert [r for r, _, _ in table] == sorted(set(Fraction(r) for r in radii))
        for r, plain, trunc in table:
            one_plain = N_integrated(D, r)
            one_trunc = N_tilde_q_integrated(D, kappa, q, r)
            assert (plain.n_value, trunc.n_value) == (one_plain.n_value, one_trunc.n_value)
            assert abs(plain.N_value - one_plain.N_value) <= plain.error + one_plain.error
            assert abs(trunc.N_value - one_trunc.N_value) <= trunc.error + one_trunc.error
    with pytest.raises(ValueError):
        counting_table(D, 1, 1, [])
    with pytest.raises(ValueError):
        counting_table(D, 1, 1, [0, 1])


def test_check_truncation_makes_two_sweeps(tower, monkeypatch):
    sweeps = []
    sweep = diffrad.divisor._Table.sweep

    def spy(table, weights):
        sweeps.append(table)
        return sweep(table, weights)

    monkeypatch.setattr(diffrad.divisor._Table, "sweep", spy)
    D = _overlapping_divisor(tower)
    for q in (1, 2, 3):
        for n in (1, 3):
            sweeps.clear()
            check_truncation(D, tower.sqrt_gen(0), q, n, [1, 2, 5])
            assert len(sweeps) == 2 and sweeps[0] is sweeps[1]


def test_radius_errors_share_one_message(tower):
    D = Divisor(tower, {0: 1, 2: 1})
    gs = [FactoredPoly(tower.one, [(0, 2)]), FactoredPoly(tower.one, [(-2, 2)])]
    one_radius = [lambda r: n_count(D, r), lambda r: N_integrated(D, r)]
    radius_lists = [
        lambda radii: counting_table(D, 1, 1, radii),
        lambda radii: check_truncation(D, 1, 1, 1, radii),
        lambda radii: check_ord_inequality(gs, 1, radii),
    ]

    def message(call, arg):
        with pytest.raises(ValueError) as err:
            call(arg)
        return str(err.value)

    assert {message(call, []) for call in radius_lists} == {"need at least one radius"}
    negative = [message(call, -1) for call in one_radius]
    negative += [message(call, [2, -1, Fraction(1, 2), 2]) for call in radius_lists]
    assert set(negative) == {"radius must be non-negative, got -1"}
    # The integrated counts ask for a positive radius on top of that.
    for call in radius_lists[:2]:
        assert message(call, [0, 1]) == "integrated counting needs a positive radius"
    assert n_count(D, 0) == 1


def _ord_oracle_rows(gs, kappa, radii):
    """The per-radius aggregate of check_ord_inequality, one comparison per
    (point, radius) and each window minimum taken over all m points."""
    m = len(gs)
    dense = [g.expand() for g in gs]
    total = sum(dense[1:], dense[0])
    C = naive_poly.casoratian(dense, kappa)
    ords = [g.ord_at for g in gs] + [total.ord_at]
    points = {w + kappa * j for g in gs for w in g.roots() for j in range(m)}
    rows = []
    for r in sorted(set(radii)):
        lhs = rhs = 0
        for w in points:
            if compare_real(w.abs_squared(), r * r) <= 0:
                lhs += max(sum(o(w) for o in ords) - C.ord_at(w), 0)
                rhs += sum(o(w) - min(o(w + kappa * j) for j in range(m)) for o in ords)
        rows.append({"r": str(r), "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs})
    return rows


def test_check_ord_inequality_rows_match_pointwise_oracle(tower):
    i, s2 = tower.sqrt_gen(0), tower.sqrt_gen(1)
    # roots on the circles |w| = 5 and |w| = 2, at the origin and irrational
    g1 = FactoredPoly(tower.one, [(3 + 4 * i, 2), (0, 1), (1 + s2, 1)])
    g2 = FactoredPoly(-tower.rational(2), [(2, 2), (-2 * i, 1)])
    g3 = FactoredPoly(tower.one, [(Fraction(1, 2), 1)])
    radii = [5, 0, 2, Fraction(1, 2), 2, 10, 3]
    for gs in ([g1, g2], [g1, g2, g3]):
        for kappa in (1, i, Fraction(-3, 2)):
            report = check_ord_inequality(gs, kappa, radii)
            assert report.artifacts["per_radius"] == _ord_oracle_rows(
                gs, tower._coerce(kappa), [Fraction(r) for r in radii]
            )


def test_check_truncation_validation(tower):
    D = Divisor(tower, {0: 1})
    with pytest.raises(ZeroShiftError):
        check_truncation(D, 0, 1, 1, [1])
    with pytest.raises(ValueError):
        check_truncation(D, 1, 0, 1, [1])
    with pytest.raises(ValueError):
        check_truncation(D, 1, 1, 0, [1])
    with pytest.raises(ValueError):
        check_truncation(D, 1, 1, 1, [])
    with pytest.raises(ValueError):
        check_truncation(D, 1, 1, 1, [0])


def test_check_ord_inequality_demo(tower):
    g1 = FactoredPoly(tower.one, [(0, 2)])
    g2 = FactoredPoly(tower.one, [(-2, 2)])
    report = check_ord_inequality([g1, g2], 1)
    assert report.holds and report.exit_code() == 0
    assert report.artifacts["points_checked"] == 4
    assert report.artifacts["violations"] == []
    assert report.artifacts["shift_gcd_divides_casoratian"]
    assert all(row["lhs"] <= row["rhs"] for row in report.artifacts["per_radius"])


def test_check_ord_inequality_pins_the_window(tower):
    # g1 = z^2 (z - 1) carries the chain 0 (mult 2), 1 (mult 1); g2 = 1 and the
    # sum z^3 - z^2 + 1 vanish nowhere on it. With m = 2 the window of w is
    # {w, w+1}: excess 1 at 0 and 1 at 1. A one-point window would give 0 and
    # 0, a three-point window 2 and 1.
    g1 = FactoredPoly(tower.one, [(0, 2), (1, 1)])
    g2 = FactoredPoly(tower.one, [])
    report = check_ord_inequality([g1, g2], 1, radii=[0, 1, 2])
    assert report.holds
    assert report.artifacts["points_checked"] == 3
    assert report.artifacts["per_radius"] == [
        {"r": "0", "lhs": 1, "rhs": 1, "holds": True},
        {"r": "1", "lhs": 2, "rhs": 2, "holds": True},
        {"r": "2", "lhs": 2, "rhs": 2, "holds": True},
    ]


def test_check_ord_inequality_random(tower):
    rng = random.Random(57)
    for m in (2, 3):
        for _ in range(8):
            kappa = random_kappa(rng, tower)
            gs = random_ord_inputs(rng, tower, kappa, m)
            report = check_ord_inequality(gs, kappa)
            assert report.hypotheses_ok
            assert report.holds, report.artifacts["violations"]
            assert report.artifacts["shift_gcd_divides_casoratian"]


def test_check_ord_inequality_explicit_radii(tower):
    g1 = FactoredPoly(tower.one, [(0, 2)])
    g2 = FactoredPoly(tower.one, [(-2, 2)])
    report = check_ord_inequality([g1, g2], 1, radii=[3, 1, 3, Fraction(2, 2)])
    assert [row["r"] for row in report.artifacts["per_radius"]] == ["1", "3"]
    with pytest.raises(ValueError):
        check_ord_inequality([g1, g2], 1, radii=[-1])
    # also when a failed hypothesis ends the check before any counting
    shared = [FactoredPoly(tower.one, [(0, 1), (1, 1)]), FactoredPoly(tower.one, [(0, 1)])]
    assert not check_ord_inequality(shared, 1, radii=[1]).hypotheses_ok
    with pytest.raises(ValueError, match="radius must be non-negative"):
        check_ord_inequality(shared, 1, radii=[-1])


def test_check_ord_inequality_failure_modes(tower):
    z_poly = FactoredPoly(tower.one, [(0, 1)])
    neg = FactoredPoly(-tower.one, [(0, 1)])
    with pytest.raises(ZeroSumError):
        check_ord_inequality([z_poly, neg], 1)
    doubled = FactoredPoly(tower.rational(2), [(0, 1)])
    with pytest.raises(DependentInputsError, match="linearly dependent over constants"):
        check_ord_inequality([z_poly, doubled], 1)
    with pytest.raises(ValueError):
        check_ord_inequality([z_poly], 1)
    with pytest.raises(ZeroShiftError):
        check_ord_inequality([z_poly, FactoredPoly(tower.one, [(1, 1)])], 0)

    shared1 = FactoredPoly(tower.one, [(0, 1), (1, 1)])
    shared2 = FactoredPoly(tower.one, [(0, 1), (-1, 1)])
    report = check_ord_inequality([shared1, shared2], 1)
    assert [h.name for h in report.hypotheses] == ["independent", "no common zeros"]
    assert not report.hypotheses[-1].passed
    assert report.holds is None and report.exit_code() == 2
