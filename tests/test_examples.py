"""The built-in worked-example fixtures and their frozen expectations."""

import pytest

from diffrad.examples import EXPECTED, FIXTURES, run_all, run_fixture


def test_every_fixture_matches_frozen_values():
    results = run_all()
    assert [r.name for r in results] == [f.name for f in FIXTURES]
    for result in results:
        assert result.ok, result.mismatches
    assert set(EXPECTED) == {f.name for f in FIXTURES}


def test_subset_selection_preserves_order():
    names = ["sharp-triple-deg4", "shift-chain-radical"]
    results = run_all(names=names)
    # runner keeps fixture declaration order, not request order
    assert [r.name for r in results] == ["shift-chain-radical", "sharp-triple-deg4"]


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        run_all(names=["bogus"])


def test_tampered_expectation_is_caught():
    assert FIXTURES[0].name == "shift-chain-radical"
    result = run_fixture(FIXTURES[0], expected={"n_tilde": 5})
    assert not result.ok and len(result.mismatches) == 1
    assert "expected 5" in result.mismatches[0]
    assert "got 4" in result.mismatches[0]


def test_missing_value_is_caught():
    result = run_fixture(FIXTURES[0], expected={"no_such_key": 1})
    assert not result.ok
    assert "value missing" in result.mismatches[0]
