"""Fermat-type functional equations in shifted factorial powers.

The factorial power of order n is [p](z) = p(z) p(z+kappa) ... p(z+(n-1)kappa).
Checked statements, all with exact arithmetic:

  xyz    [a] + [b] = [c], three bases:  n <= 2 when none is constant
         (refined rational bound 3 - 1/max_deg), n <= 1 when one is constant.
  sum    [p_1] + ... + [p_m] = [p_{m+1}]:  n <= m^2 - 1 - m(m-1)/(2 max_deg),
         hence the integer bound m^2 - 2.
  sum1   [p_1] + ... + [p_m] = 1:  n <= m^2 - m - m(m-1)/(2 max_deg),
         hence the integer bound m^2 - m - 1.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .field import FieldElement
from .mason import _coprime_hypothesis
from .poly import Polynomial, require_order, require_shift
from .report import CheckReport, Hypothesis, Statement, chain_report


class Form(str, Enum):
    XYZ = "xyz"
    SUM_FACTORIAL = "sum"
    SUM_ONE = "sum1"


def factorial_poly(p: Polynomial, kappa, n: int) -> Polynomial:
    """The order-n shifted factorial power of p along kappa."""
    kappa = require_shift(p.tower, kappa, "factorial power")
    require_order(n, 1, "factorial order")
    out = p
    for j in range(1, n):
        out = out * p.taylor_shift(kappa * j)
    return out


class _InstanceFields(NamedTuple):
    ps: tuple[Polynomial, ...]
    kappa: FieldElement
    n: int
    form: Form


class FermatInstance(_InstanceFields):
    """A candidate solution: bases ps, shift kappa, exponent n, equation form."""

    __slots__ = ()

    def __new__(cls, ps, kappa, n, form):
        if not ps:
            raise ValueError("an instance needs at least one base polynomial")
        require_order(n, 1, "exponent n")
        # kappa is stored coerced into the bases' tower.
        kappa = require_shift(ps[0].tower, kappa, "instance")
        if form == Form.XYZ and len(ps) != 3:
            raise ValueError("form xyz takes exactly three bases")
        if form == Form.SUM_FACTORIAL and len(ps) < 3:
            raise ValueError("form sum takes m + 1 >= 3 bases")
        if form == Form.SUM_ONE and len(ps) < 2:
            raise ValueError("form sum1 takes m >= 2 bases")
        return tuple.__new__(cls, (ps, kappa, n, form))

    @classmethod
    def _make(cls, fields):
        # _replace builds its copy here: check the new fields as __new__ does.
        return cls(*fields)

    @property
    def m(self) -> int:
        """Number of summands on the left side."""
        if self.form == Form.SUM_ONE:
            return len(self.ps)
        return len(self.ps) - 1

    def factorials(self) -> list[Polynomial]:
        return [factorial_poly(p, self.kappa, self.n) for p in self.ps]

    def statement(self) -> Statement:
        return {
            Form.XYZ: Statement.FERMAT_XYZ,
            Form.SUM_FACTORIAL: Statement.FERMAT_SUM_MULTI,
            Form.SUM_ONE: Statement.FERMAT_SUM_ONE,
        }[self.form]


class FermatBound(NamedTuple):
    exact: Fraction
    corollary: int


def fermat_bound(form: Form, m: int, max_deg: int) -> FermatBound:
    """Exact rational bound on the exponent, plus its integer corollary."""
    require_order(m, 2, "summand count m")
    require_order(max_deg, 1, "maximum degree")
    slack = Fraction(m * (m - 1), 2 * max_deg)
    if form in (Form.XYZ, Form.SUM_FACTORIAL):
        return FermatBound(m * m - 1 - slack, m * m - 2)
    if form == Form.SUM_ONE:
        return FermatBound(m * m - m - slack, m * m - m - 1)
    raise ValueError(f"unknown form {form!r}")


def verify_fermat(inst: FermatInstance, coprimality: str = "setwise") -> CheckReport:
    """Check the equation and hypotheses; no bound comparison yet."""
    tower = inst.ps[0].tower

    def chain():
        nonzero = all(not p.is_zero() for p in inst.ps)
        yield Hypothesis(
            "nonzero", nonzero, "all bases nonzero" if nonzero else "a zero base"
        )

        facts = inst.factorials()
        if inst.form == Form.SUM_ONE:
            summands, target = facts, Polynomial(tower, (1,))
            eq_detail = "factorial powers sum to 1"
        else:
            summands, target = facts[:-1], facts[-1]
            eq_detail = "factorial powers of the first bases sum to the last"
        diff = sum(summands, Polynomial.zero(tower)) - target
        eq_ok = diff.is_zero()
        yield Hypothesis(
            "equation",
            eq_ok,
            eq_detail if eq_ok else f"equation fails, difference {diff}",
        )

        mode = "pairwise" if inst.form == Form.XYZ else coprimality
        cop = _coprime_hypothesis(facts, mode)
        yield Hypothesis(f"factorials coprime ({mode})", cop.passed, cop.detail)

        if inst.form == Form.XYZ:
            nc_ok = any(p.degree > 0 for p in inst.ps)
            nc_detail = "not all bases constant" if nc_ok else "all bases constant"
        else:
            nc_ok = all(p.degree > 0 for p in inst.ps)
            nc_detail = "all bases nonconstant" if nc_ok else "a constant base"
        yield Hypothesis("nonconstant", nc_ok, nc_detail)

        return dict(artifacts={"n": inst.n, "m": inst.m, "form": inst.form.value})

    return chain_report(inst.statement(), chain())


def check_fermat_theorem(inst: FermatInstance, coprimality: str = "setwise") -> CheckReport:
    """verify_fermat plus the exponent bound for the instance's form."""
    report = verify_fermat(inst, coprimality)
    if not report.hypotheses_ok:
        return report

    max_deg = max(int(p.degree) for p in inst.ps)
    artifacts = dict(report.artifacts)
    artifacts["max_deg"] = max_deg

    if inst.form == Form.XYZ and any(p.degree == 0 for p in inst.ps):
        rhs: Fraction | int = 1
        artifacts["bound_source"] = "one base constant"
    else:
        bound = fermat_bound(inst.form, inst.m, max_deg)
        rhs = bound.exact
        artifacts["corollary_bound"] = bound.corollary

    lhs = inst.n
    return report._replace(
        lhs=lhs, rhs=rhs, holds=Fraction(lhs) <= Fraction(rhs), artifacts=artifacts
    )
