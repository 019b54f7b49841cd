import time
from fractions import Fraction

import pytest

from diffrad import FieldTower, default_tower

_T0 = time.monotonic()

SUITE_BUDGET_SECONDS = 60.0


@pytest.fixture(scope="session")
def tower():
    return default_tower()


def _nested_tower():
    """Q(i, sqrt(2), sqrt(1 + sqrt(2))): the last radicand is not rational."""
    base = FieldTower.rationals().adjoin_sqrt(-1).adjoin_sqrt(2)
    return base.adjoin_sqrt(1 + base.sqrt_gen(1))


def _tden_tower():
    """Q(i, sqrt(2), sqrt(1/2 + sqrt(2)/3)): its basis table has a denominator."""
    base = FieldTower.rationals().adjoin_sqrt(-1).adjoin_sqrt(2)
    return base.adjoin_sqrt(Fraction(1, 2) + base.sqrt_gen(1) / 3)


@pytest.fixture(scope="module", params=["default", "nested", "tden"])
def any_tower(request, tower):
    """The default tower, one with a non-rational radicand, and one whose
    basis table has a denominator."""
    towers = {"default": lambda: tower, "nested": _nested_tower, "tden": _tden_tower}
    return towers[request.param]()


def suite_elapsed() -> float:
    return time.monotonic() - _T0


def pytest_sessionfinish(session, exitstatus):
    elapsed = suite_elapsed()
    ok = elapsed < SUITE_BUDGET_SECONDS
    print(
        f"\nsuite runtime [{'PASS' if ok else 'FAIL'}] "
        f"{elapsed:.1f}s (budget {SUITE_BUDGET_SECONDS:.0f}s)"
    )
    if not ok and session.exitstatus == 0:
        session.exitstatus = 1
