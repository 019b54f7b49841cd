"""The integer fixed-point logarithms of the counting sweep against mpmath.

mpmath is only the oracle here, at well over the working precision; the
package itself never imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import diffrad.divisor
from diffrad import default_tower
from diffrad.divisor import _LOG_PREC, _log_fixed, _Table

mpmath = pytest.importorskip("mpmath")

# The counting scale, and a far finer one: the kernel takes any scale.
PRECS = st.sampled_from([_LOG_PREC, 1064])
# small, or 200 bits and more
INTS = st.one_of(st.integers(1, 1000), st.integers(1 << 200, 1 << 260))


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _assert_encloses(pair, exact, prec):
    """lo <= exact * 2**prec <= hi, checked with mpmath at prec + 400 bits."""
    lo, hi = pair
    with mpmath.workprec(prec + 400):
        scaled = mpmath.ldexp(exact(), prec)
        assert lo <= scaled <= hi
    # The enclosure is far narrower than the floats it feeds.
    assert 0 <= hi - lo < 1 << 24


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    prec=PRECS,
    num=INTS,
    den=INTS,
    near=st.integers(-(1 << 20), 1 << 20),
    near_one=st.booleans(),
)
def test_log_of_rational(prec, num, den, near, near_one):
    # Near 1: num/den = 1 + near/den with den of 200 bits or more.
    if near_one:
        den = max(den, 1 << 200)
        num = den + near
        assume(num > 0)
    _assert_encloses(
        _log_fixed(num, den, prec), lambda: mpmath.log(_mp(Fraction(num, den))), prec
    )


def test_log_of_small_rationals_and_one():
    for prec in (_LOG_PREC, 1064):
        assert _log_fixed(1, 1, prec) == (0, 0)
        for num, den in ((2, 1), (1, 2), (4, 3), (2, 3), (3, 2), (3, 4), (5, 7), (10**40, 1)):
            _assert_encloses(
                _log_fixed(num, den, prec), lambda: mpmath.log(_mp(Fraction(num, den))), prec
            )


_COEFF = st.fractions(min_value=-7, max_value=7, max_denominator=9)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(coeffs=st.lists(_COEFF, min_size=4, max_size=4))
def test_log_of_irrational_abs_squared(coeffs):
    tower = default_tower()
    i, s2, s3 = (tower.sqrt_gen(k) for k in range(3))
    a, b, c, d = coeffs
    w = a + b * s2 + (c + d * s3) * i
    abs_sq = w.abs_squared()
    assume(not abs_sq.is_rational())
    table = _Table([Fraction(1)])

    def exact():  # |w|^2 = (a + b sqrt 2)^2 + (c + d sqrt 3)^2
        two, three = mpmath.sqrt(2), mpmath.sqrt(3)
        re = _mp(a) + _mp(b) * two
        im = _mp(c) + _mp(d) * three
        return mpmath.log(re * re + im * im)

    _assert_encloses(table._log_abs_sq(abs_sq), exact, _LOG_PREC)


@pytest.mark.parametrize("bits", [40, 1024])
def test_wide_box_keeps_the_value_inside(monkeypatch, bits):
    # A box as wide as scaled_box may return, with the value at its top end:
    # the upper bound must come from the box's top, not from the log of its
    # low end.  The scale is den << P with P > width_bits, so scale >>
    # width_bits is exactly 2**-width_bits at that scale.
    # bits 40 is the counting precision itself (64-bit boxes, logarithms at
    # 2**-80); bits 1024 runs the same kernel at a far finer box and scale.
    box_bits = bits + 24
    log_prec = box_bits + 16
    if bits == 40:
        assert (box_bits, log_prec) == (diffrad.divisor._BOX_BITS, _LOG_PREC)
    monkeypatch.setattr(diffrad.divisor, "_BOX_BITS", box_bits)
    monkeypatch.setattr(diffrad.divisor, "_LOG_PREC", log_prec)
    kernel, widened_calls = diffrad.divisor.scaled_box, []

    def widened(x, width_bits):
        (lo, hi, _, _), scale = kernel(x, width_bits)
        widened_calls.append(x)
        return [lo - (scale >> width_bits), hi, 0, 0], scale

    monkeypatch.setattr(diffrad.divisor, "scaled_box", widened)
    tower = default_tower()
    s2, s3 = tower.sqrt_gen(1), tower.sqrt_gen(2)
    for w, value in ((1 + s2, lambda: (1 + mpmath.sqrt(2)) ** 2),
                     (s2 + s3, lambda: (mpmath.sqrt(2) + mpmath.sqrt(3)) ** 2),
                     ((s3 - 1) / 8, lambda: ((mpmath.sqrt(3) - 1) / 8) ** 2)):
        enc = _Table([Fraction(1)])._log_abs_sq(w.abs_squared())
        _assert_encloses(enc, lambda: mpmath.log(value()), log_prec)
    assert len(widened_calls) == 3
