"""The hypothesis chain, where every checker stops at its first failed
hypothesis, and the frozen result records."""

import pytest

from diffrad import (
    CheckReport,
    CountingValue,
    FactoredPoly,
    FermatInstance,
    Form,
    Polynomial,
    check_fermat_theorem,
    check_mason_multi,
    check_mason_triple,
    check_ord_inequality,
    diff_radical,
    verify_fermat,
)
from diffrad.cli import Session
from diffrad.examples import FIXTURES, FixtureResult
from diffrad.report import Hypothesis, Statement, chain_report


def _z(t):
    return Polynomial.variable(t)


def _c(t, value):
    return Polynomial(t, (value,))


def _fermat(t, bases):
    return FermatInstance(tuple(bases), t.one, 1, Form.XYZ)


# (checker name, k) -> the check run on input whose hypothesis k fails first.
FAILING_AT = {
    ("check_mason_triple", 1): lambda t: check_mason_triple(_c(t, 0), _z(t), _z(t), 1),
    ("check_mason_triple", 2): lambda t: check_mason_triple(_z(t), _c(t, 1), _z(t), 1),
    ("check_mason_triple", 3): lambda t: check_mason_triple(_z(t), _z(t), _z(t) * 2, 1),
    ("check_mason_triple", 4): lambda t: check_mason_triple(_c(t, 1), _c(t, 1), _c(t, 2), 1),
    ("check_mason_multi", 1): lambda t: check_mason_multi([_c(t, 0), _z(t), _z(t)], 1),
    ("check_mason_multi", 2): lambda t: check_mason_multi([_z(t), _c(t, 1), _z(t)], 1),
    ("check_mason_multi", 3): lambda t: check_mason_multi([_z(t), _z(t), _z(t) * 2], 1),
    ("check_mason_multi", 4): lambda t: check_mason_multi([_c(t, 1), _c(t, 2), _c(t, 3)], 1),
    ("verify_fermat", 1): lambda t: verify_fermat(_fermat(t, [_c(t, 0), _z(t), _z(t)])),
    ("verify_fermat", 2): lambda t: verify_fermat(_fermat(t, [_z(t), _c(t, 1), _z(t)])),
    ("verify_fermat", 3): lambda t: verify_fermat(_fermat(t, [_z(t), _z(t), _z(t) * 2])),
    ("verify_fermat", 4): lambda t: verify_fermat(_fermat(t, [_c(t, 1), _c(t, 1), _c(t, 2)])),
    ("check_fermat_theorem", 3): lambda t: check_fermat_theorem(
        _fermat(t, [_z(t), _z(t), _z(t) * 2])
    ),
    ("check_ord_inequality", 2): lambda t: check_ord_inequality(
        [FactoredPoly(t.one, [(0, 1)]), FactoredPoly(t.one, [(0, 1), (1, 1)])], 1
    ),
}


@pytest.mark.parametrize("checker, k", sorted(FAILING_AT))
def test_checker_stops_at_first_failed_hypothesis(tower, checker, k):
    report = FAILING_AT[checker, k](tower)
    assert len(report.hypotheses) == k
    assert [h.passed for h in report.hypotheses] == [True] * (k - 1) + [False]
    assert report.holds is None and report.lhs is None and report.rhs is None
    assert report.artifacts == {}
    assert report.exit_code() == 2


def test_chain_report_computes_nothing_after_a_failure():
    reached = []

    def chain(fail_first):
        yield Hypothesis("first", not fail_first)
        reached.append("second")
        yield Hypothesis("second", True)
        reached.append("verdict")
        return dict(lhs=1, rhs=2, holds=True, artifacts={"x": 1})

    report = chain_report(Statement.MASON_TRIPLE, chain(True))
    assert [h.name for h in report.hypotheses] == ["first"] and reached == []
    assert report.to_json_dict()["holds"] is None

    report = chain_report(Statement.MASON_TRIPLE, chain(False))
    assert reached == ["second", "verdict"]
    assert (report.lhs, report.rhs, report.holds, report.artifacts) == (1, 2, True, {"x": 1})
    assert report.exit_code() == 0


def test_failed_reports_never_share_artifacts(tower):
    first = FAILING_AT["check_mason_triple", 1](tower)
    second = FAILING_AT["check_mason_multi", 2](tower)
    assert first.artifacts == second.artifacts == {}
    assert first.artifacts is not second.artifacts
    bare, again = (CheckReport(Statement.MASON_TRIPLE, ()) for _ in range(2))
    assert bare.artifacts == again.artifacts == {} and bare.artifacts is not again.artifacts
    given = {"x": 1}
    assert CheckReport(Statement.MASON_TRIPLE, (), artifacts=given).artifacts is given
    assert first._replace(artifacts=None).artifacts == {}


def test_replace_gives_a_changed_report(tower):
    bases = [_z(tower), _c(tower, 1), _z(tower) + 1]
    base = verify_fermat(_fermat(tower, bases))
    full = check_fermat_theorem(_fermat(tower, bases))
    assert type(full) is CheckReport and full.hypotheses == base.hypotheses
    assert (base.holds, full.holds, full.lhs) == (None, True, 1)
    assert "max_deg" not in base.artifacts and full.artifacts["max_deg"] == 1


def test_records_are_frozen(tower):
    z = _z(tower)
    fixture = FIXTURES[0]
    records = [
        (Hypothesis("h", True), "passed"),
        (FAILING_AT["check_mason_triple", 1](tower), "holds"),
        (diff_radical(z * (z + 1), 1), "radical"),
        (CountingValue(1, 0.5, 0.0), "error"),
        (_fermat(tower, [z, _c(tower, 1), z + 1]), "kappa"),
        (fixture, "build"),
        (FixtureResult(fixture.name, {}, ()), "mismatches"),
        (Session(tower, tower.one, False, None, "setwise"), "json_output"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None
