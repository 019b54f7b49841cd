"""Factorial powers and the Fermat-type equation checkers."""

import random
from fractions import Fraction

import pytest

from diffrad import (
    FermatInstance,
    Form,
    Polynomial,
    Statement,
    ZeroShiftError,
    check_fermat_theorem,
    divisor_of,
    factorial_divisor,
    factorial_poly,
    fermat_bound,
    pairwise_coprime,
    verify_fermat,
)
from diffrad.generators import (
    _quadratic_factorial_triple,
    random_factored,
    random_fermat_instance,
    random_kappa,
    random_poly,
)
from diffrad.parser import parse_poly


def test_factorial_poly_known_products(tower):
    z = Polynomial.variable(tower)
    one = tower.one
    assert factorial_poly(z, one, 3) == z * (z + 1) * (z + 2)
    assert factorial_poly(z, one, 1) == z
    sq = z * z
    assert factorial_poly(sq, one, 2) == sq * (z + 1) * (z + 1)


def test_factorial_poly_rejects_bad_args(tower):
    z = Polynomial.variable(tower)
    with pytest.raises(ZeroShiftError):
        factorial_poly(z, 0, 2)
    for n in (0, -1, Fraction(3, 2)):
        with pytest.raises(ValueError):
            factorial_poly(z, 1, n)


def test_factorial_recurrence_degree_and_lead(tower):
    rng = random.Random(41)
    for _ in range(60):
        kappa = random_kappa(rng, tower)
        p = random_poly(rng, tower, 3, kappa)
        while p.is_zero():
            p = random_poly(rng, tower, 3, kappa)
        n = rng.randint(1, 3)
        fn = factorial_poly(p, kappa, n)
        assert factorial_poly(p, kappa, n + 1) == fn * p.taylor_shift(kappa * n)
        assert fn.degree == n * p.degree
        assert fn.lead == p.lead ** n


def test_factorial_divisor_matches_dense_orders(tower):
    # ord_w of the order-n power is the sum of input orders at w, w+k, ...
    rng = random.Random(42)
    for _ in range(25):
        kappa = random_kappa(rng, tower)
        f = random_factored(rng, tower, kappa)
        n = rng.randint(1, 3)
        dense = factorial_poly(f.expand(), kappa, n)
        fd = factorial_divisor(divisor_of(f), kappa, n)
        assert fd.total() == dense.degree
        for w, mult in fd.items():
            assert dense.ord_at(w) == mult
            assert mult == sum(f.ord_at(w + kappa * i) for i in range(n))


def test_instance_validation(tower):
    z = Polynomial.variable(tower)
    one = tower.one
    with pytest.raises(ValueError):
        FermatInstance((z, z), one, 1, Form.XYZ)
    with pytest.raises(ValueError):
        FermatInstance((z, z), one, 1, Form.SUM_FACTORIAL)
    with pytest.raises(ValueError):
        FermatInstance((z,), one, 1, Form.SUM_ONE)
    with pytest.raises(ValueError):
        FermatInstance((), one, 1, Form.XYZ)
    with pytest.raises(ValueError):
        FermatInstance((z, z, z), one, 0, Form.XYZ)
    with pytest.raises(ZeroShiftError):
        FermatInstance((z, z, z), tower.zero, 1, Form.XYZ)

    assert FermatInstance((z, z, z), one, 1, Form.XYZ).m == 2
    assert FermatInstance((z, z, z, z), one, 1, Form.SUM_FACTORIAL).m == 3
    assert FermatInstance((z, z, z), one, 1, Form.SUM_ONE).m == 3
    assert FermatInstance((z, z, z), one, 1, Form.XYZ).statement() == Statement.FERMAT_XYZ


def test_instance_checks_in_order(tower):
    """Bases, then exponent, then shift, then the form's base count: with
    several faults the first check raises, with the same type and message."""
    z = Polynomial.variable(tower)
    cases = [
        (((), 0, 0, Form.XYZ), ValueError, "an instance needs at least one base polynomial"),
        (((z,), 0, 0, Form.XYZ), ValueError, "exponent n must be a positive integer, got 0"),
        (((z,), 0, 1, Form.XYZ), ZeroShiftError, "instance needs a nonzero shift"),
        (((z,), 1, 1, Form.XYZ), ValueError, "form xyz takes exactly three bases"),
        (((z, z), 1, 1, Form.SUM_FACTORIAL), ValueError, "form sum takes m + 1 >= 3 bases"),
        (((z,), 1, 1, Form.SUM_ONE), ValueError, "form sum1 takes m >= 2 bases"),
    ]
    valid = FermatInstance((z, z, z), 1, 1, Form.XYZ)
    for args, error, message in cases:
        # _replace checks its copy the same way.
        changed = dict(zip(valid._fields, args))
        for build in (lambda: FermatInstance(*args), lambda: valid._replace(**changed)):
            with pytest.raises(ValueError) as caught:
                build()
            assert type(caught.value) is error and str(caught.value) == message
    assert valid._replace(kappa=2).kappa.tower is tower


def test_instance_coerces_the_shift(tower):
    z = Polynomial.variable(tower)
    for kappa in (1, Fraction(1, 2), tower.sqrt_gen(0)):
        inst = FermatInstance((z, z, z), kappa, 1, Form.XYZ)
        assert inst.kappa == kappa and inst.kappa.tower is tower
        assert inst.factorials()[0] == z
    assert FermatInstance((z, z, z), 1, 2, Form.XYZ) == FermatInstance(
        (z, z, z), tower.one, 2, Form.XYZ
    )
    by_name = FermatInstance(ps=(z, z, z), kappa=Fraction(2), n=2, form=Form.XYZ)
    assert by_name == FermatInstance((z, z, z), 2, 2, Form.XYZ)
    assert hash(by_name) == hash(FermatInstance((z, z, z), tower.rational(2), 2, Form.XYZ))
    assert by_name.kappa.tower is tower
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroShiftError):
            FermatInstance((z, z, z), zero, 1, Form.XYZ)


def test_bound_values():
    assert fermat_bound(Form.XYZ, 2, 2) == (Fraction(5, 2), 2)
    assert fermat_bound(Form.SUM_FACTORIAL, 2, 2) == (Fraction(5, 2), 2)
    assert fermat_bound(Form.SUM_FACTORIAL, 3, 1) == (Fraction(5), 7)
    assert fermat_bound(Form.SUM_ONE, 2, 1) == (Fraction(1), 1)
    assert fermat_bound(Form.SUM_ONE, 3, 2) == (Fraction(9, 2), 5)
    # the rational bound approaches the integer corollary from below
    assert fermat_bound(Form.SUM_FACTORIAL, 4, 10 ** 6).exact < 15

    with pytest.raises(ValueError):
        fermat_bound(Form.XYZ, 1, 2)
    with pytest.raises(ValueError):
        fermat_bound(Form.SUM_ONE, 2, 0)
    with pytest.raises(ValueError):
        fermat_bound("bogus", 2, 1)


def test_quadratic_triple_coefficients(tower):
    a, b, c = _quadratic_factorial_triple(tower)
    assert a == parse_poly("z^2", tower)
    assert b == parse_poly("(-i/2)*(sqrt(2)*z^2 + 2*z - sqrt(2))", tower)
    assert c == parse_poly("(-1/2)*(sqrt(2)*z^2 - 2*z - sqrt(2))", tower)


def test_quadratic_identity_exact(tower):
    a, b, c = _quadratic_factorial_triple(tower)
    one = tower.one
    facts = [factorial_poly(p, one, 2) for p in (a, b, c)]
    assert facts[0] + facts[1] == facts[2]
    ok, witness = pairwise_coprime(facts)
    assert ok and witness is None

    report = check_fermat_theorem(FermatInstance((a, b, c), one, 2, Form.XYZ))
    assert report.hypotheses_ok and report.holds
    assert report.lhs == 2
    assert report.rhs == Fraction(5, 2)
    assert report.artifacts["corollary_bound"] == 2
    assert report.artifacts["max_deg"] == 2
    assert report.exit_code() == 0


def test_perturbed_identity_reports_difference(tower):
    a, b, c = _quadratic_factorial_triple(tower)
    report = verify_fermat(FermatInstance((a, b + 1, c), tower.one, 2, Form.XYZ))
    assert not report.hypotheses_ok
    eq = report.hypotheses[1]
    assert eq.name == "equation" and not eq.passed
    # the detail names the exact nonzero difference polynomial
    diff = (b + 1) * (b + 1).taylor_shift(tower.one) - b * b.taylor_shift(tower.one)
    assert str(diff) in eq.detail
    assert report.exit_code() == 2


def test_hypothesis_order_and_short_circuit(tower):
    z = Polynomial.variable(tower)
    zero = Polynomial.zero(tower)

    report = verify_fermat(FermatInstance((z, zero, z), tower.one, 1, Form.XYZ))
    assert [h.name for h in report.hypotheses] == ["nonzero"]

    report = verify_fermat(FermatInstance((z, z, z), tower.one, 1, Form.XYZ))
    assert [h.name for h in report.hypotheses] == ["nonzero", "equation"]

    # z + z = 2z holds but the factorials share the root 0
    report = verify_fermat(FermatInstance((z, z, z + z), tower.one, 1, Form.XYZ))
    assert [h.name for h in report.hypotheses] == [
        "nonzero",
        "equation",
        "factorials coprime (pairwise)",
    ]
    assert not report.hypotheses[-1].passed

    report = verify_fermat(
        FermatInstance((z, z + 1, z + z + 1), tower.one, 1, Form.SUM_FACTORIAL)
    )
    assert [h.name for h in report.hypotheses] == [
        "nonzero",
        "equation",
        "factorials coprime (setwise)",
        "nonconstant",
    ]
    assert report.hypotheses_ok
    assert report.artifacts == {"n": 1, "m": 2, "form": "sum"}


def test_constant_bases_fail_nonconstant(tower):
    one_p = Polynomial(tower, (1,))
    two_p = Polynomial(tower, (2,))
    report = verify_fermat(FermatInstance((one_p, one_p, two_p), tower.one, 1, Form.XYZ))
    assert report.hypotheses[-1].name == "nonconstant"
    assert not report.hypotheses[-1].passed

    half = Polynomial(tower, (Fraction(1, 2),))
    report = verify_fermat(FermatInstance((half, half), tower.one, 1, Form.SUM_ONE))
    assert not report.hypotheses_ok
    assert report.hypotheses[-1].name == "nonconstant"


def test_constant_base_tightens_bound(tower):
    z = Polynomial.variable(tower)
    inst = FermatInstance((Polynomial(tower, (1,)), z, z + 1), tower.one, 1, Form.XYZ)
    report = check_fermat_theorem(inst)
    assert report.hypotheses_ok and report.holds
    assert report.rhs == 1
    assert report.artifacts["bound_source"] == "one base constant"
    assert "corollary_bound" not in report.artifacts


def test_random_instances_never_violate_bounds(tower):
    plans = [
        (Form.XYZ, 2, 2, 170),
        (Form.XYZ, 2, 1, 170),
        (Form.SUM_FACTORIAL, 2, 1, 170),
        (Form.SUM_FACTORIAL, 3, 1, 165),
        (Form.SUM_ONE, 2, 1, 165),
        (Form.SUM_ONE, 3, 1, 160),
    ]
    assert sum(count for *_, count in plans) >= 1000
    rng = random.Random(43)
    for form, m, n, count in plans:
        for _ in range(count):
            inst = random_fermat_instance(rng, tower, form, m=m, n=n)
            report = check_fermat_theorem(inst)
            assert report.hypotheses_ok, (form, m, n, report.hypotheses)
            assert report.holds, (form, m, n, report.lhs, report.rhs)
            assert Fraction(report.lhs) <= Fraction(report.rhs)
