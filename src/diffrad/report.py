"""Uniform result type for theorem checks.

Failed hypotheses never raise; they come back marked in the report and the
verdict stays undefined (holds is None).  A False verdict with all hypotheses
passing means a proved inequality failed on exact data, which is a bug signal,
and the CLI maps it to its own exit code.

Every checker states its hypotheses as a generator and hands it to
chain_report, the one place that stops at the first failed hypothesis.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Generator, NamedTuple, Optional, Union


class Statement(str, Enum):
    MASON_TRIPLE = "Mason3"
    MASON_MULTI = "MasonM"
    ORD_INEQUALITY = "OrdInequality"
    TRUNCATION = "Truncation"
    FERMAT_XYZ = "FermatXYZ"
    FERMAT_SUM_ONE = "FermatSum1"
    FERMAT_SUM_MULTI = "FermatSumM"


class Hypothesis(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


Bound = Union[int, Fraction, None]


class _ReportFields(NamedTuple):
    statement: Statement
    hypotheses: tuple[Hypothesis, ...]
    lhs: Bound
    rhs: Bound
    holds: Optional[bool]
    artifacts: dict


class CheckReport(_ReportFields):
    """A check's hypotheses in order, then its verdict.  Frozen: _replace
    gives a copy with fields changed."""

    __slots__ = ()

    def __new__(cls, statement, hypotheses, lhs=None, rhs=None, holds=None, artifacts=None):
        # Each report gets its own artifacts dict, never a shared default.
        if artifacts is None:
            artifacts = {}
        return tuple.__new__(cls, (statement, hypotheses, lhs, rhs, holds, artifacts))

    @classmethod
    def _make(cls, fields):
        # _replace builds its copy here, so it goes through __new__ too.
        return cls(*fields)

    @property
    def hypotheses_ok(self) -> bool:
        return all(h.passed for h in self.hypotheses)

    @property
    def sharp(self) -> Optional[bool]:
        if self.lhs is None or self.rhs is None:
            return None
        return self.lhs == self.rhs

    def exit_code(self) -> int:
        """CLI contract: 0 verified, 1 violated, 2 hypotheses unmet."""
        if not self.hypotheses_ok or self.holds is None:
            return 2
        return 0 if self.holds else 1

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement.value,
            "hypotheses": [
                {"name": h.name, "pass": h.passed, "detail": h.detail}
                for h in self.hypotheses
            ],
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "holds": self.holds,
            "artifacts": _jsonable(self.artifacts),
        }


def chain_report(
    statement: Statement, chain: Generator[Hypothesis, None, dict]
) -> CheckReport:
    """Run a checker's hypothesis chain and build its report.

    The chain yields its hypotheses in order and, once every one of them
    passed, returns the verdict as CheckReport keyword arguments (lhs, rhs,
    holds, artifacts).  The first failed hypothesis ends the chain there:
    nothing after it is computed and the report has no verdict.
    """
    hypotheses = []
    while True:
        try:
            hypothesis = next(chain)
        except StopIteration as done:
            return CheckReport(statement, tuple(hypotheses), **done.value)
        hypotheses.append(hypothesis)
        if not hypothesis.passed:
            return CheckReport(statement, tuple(hypotheses))


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
