"""Expression grammar, canonical printing, and their round trip."""

import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import naive_poly
from diffrad import (
    FactoredPoly,
    FieldTower,
    Polynomial,
    parse_constant,
    parse_factored,
    parse_poly,
    print_element,
    print_factored,
    print_poly,
)
from diffrad.errors import (
    NegativeExponentError,
    ParseError,
    UnknownConstantError,
)
from diffrad.generators import random_element, random_factored, random_kappa, random_poly
from diffrad.parser import MAX_DIGITS, MAX_POWER_BITS, iter_objects, parse_root_mult


def test_poly_round_trip_bulk(tower):
    rng = random.Random(55)
    for _ in range(1000):
        p = random_poly(rng, tower, 6)
        assert parse_poly(print_poly(p), tower) == p


def test_element_round_trip(tower):
    rng = random.Random(56)
    for _ in range(300):
        x = random_element(rng, tower, 6, 0.8)
        assert parse_constant(print_element(x), tower) == x


def test_factored_round_trip(tower):
    rng = random.Random(57)
    for _ in range(200):
        f = random_factored(rng, tower, random_kappa(rng, tower))
        assert parse_factored(print_factored(f), tower) == f
    empty = FactoredPoly(tower.rational(Fraction(5, 3)))
    assert parse_factored(print_factored(empty), tower) == empty


def test_grammar_basics(tower):
    z = Polynomial.variable(tower)
    i = tower.sqrt_gen(0)
    s2 = tower.sqrt_gen(1)
    cases = {
        "0": Polynomial.zero(tower),
        "z^2*(z-1)*(z-2)^3": (z**2) * (z - 1) * ((z - 2) ** 3),
        "z**2 + 1": z * z + 1,
        "3/4": Polynomial(tower, (Fraction(3, 4),)),
        "i/2": Polynomial.constant(i * Fraction(1, 2)),
        "-(z + 5)": -(z + 5),
        "- - z": z,
        "2*z - z - z": Polynomial.zero(tower),
        "sqrt(2)*z": z.scale(s2),
        "(1+i)^4": Polynomial(tower, (-4,)),
    }
    for src, expected in cases.items():
        assert parse_poly(src, tower) == expected, src


def test_sqrt_normalization(tower):
    s2 = tower.sqrt_gen(1)
    i = tower.sqrt_gen(0)
    assert parse_constant("sqrt(8)", tower) == s2 * 2
    assert parse_constant("sqrt(-2)", tower) == i * s2
    assert parse_constant("sqrt(9/4)", tower) == Fraction(3, 2)
    assert parse_constant("sqrt(1/2)", tower) == s2 * Fraction(1, 2)


def test_rejections(tower):
    bad = {
        "2z": ParseError,           # no implicit multiplication
        "z^": ParseError,
        "z^-2": NegativeExponentError,
        "(z": ParseError,
        "z)": ParseError,
        "$": ParseError,
        "z/z": ParseError,          # divisor must be a constant
        "1/0": ParseError,
        "sqrt(z)": ParseError,
        "sqrt(5)": UnknownConstantError,
        "q + 1": UnknownConstantError,
        "": ParseError,
        "1 + ": ParseError,
    }
    for src, exc in bad.items():
        with pytest.raises(exc):
            parse_poly(src, tower)


def test_parse_error_reports_position(tower):
    with pytest.raises(ParseError) as err:
        parse_poly("z + $", tower)
    assert err.value.position == 4
    assert "position 4" in str(err.value)


def test_long_integer_literal_is_a_parse_error(tower):
    long = "1" + "0" * 5000
    for parse, src, pos in (
        (parse_poly, f"z + {long}*z", 4),
        (parse_root_mult, f"(1, {long})", 4),
    ):
        with pytest.raises(ParseError) as err:
            parse(src, tower)
        assert err.value.position == pos and "5001 digits" in str(err.value)
    assert parse_poly("1" + "0" * 4000, tower) == Polynomial.constant(tower.rational(10**4000))


def test_power_of_a_constant_is_capped_in_bits(tower):
    # A constant base has degree 0, so only the bit cap stops nested powers.
    for src, pos in (
        ("(((2^200)^200)^200)^200*z", 10),
        ("((2^200)^200)^200*z", 9),
        ("(1/2^200)^72", 10),
        ("9" * 4300 + "^2", 4301),
    ):
        with pytest.raises(ParseError) as err:
            parse_poly(src, tower)
        assert err.value.position == pos
        assert f"powers are capped at {MAX_POWER_BITS}-bit coefficients" in str(err.value)
    # 201 * 71 bits is under the cap, and so is the largest literal to the first power.
    assert parse_poly("(2^200)^71", tower) == Polynomial.constant(tower.rational(2**14200))
    big = 10**4300 - 1
    assert parse_poly(f"{big}^1", tower) == Polynomial.constant(tower.rational(big))
    # The densest power the degree cap admits still parses.
    assert parse_poly("(z+1+i+sqrt(2)+sqrt(3))^200", tower).degree == 200


def test_parsed_coefficients_are_capped_in_digits(tower):
    # Values the power cap lets through but the printer could not write out.
    for parse, src, pos in (
        (parse_poly, "(2^70)^200*(2^70)^200*z", None),
        (parse_poly, "(10^200)^21*10^100", None),  # 14285 bits, 4301 digits
        (parse_poly, "z/((2^70)^200*2^200*2^85)", None),
        (parse_factored, "1; ((2^70)^200*(2^70)^200, 1)", None),
        (parse_factored, "(2^70)^200*(2^70)^200; (1, 1)", None),
        (parse_root_mult, "(1/((2^70)^200*(2^70)^200), 2)", None),
        # A non-constant base: its end coefficient (2^70*(1+i+...))^200 passes.
        (parse_poly, "(2^70*(z+1+i+sqrt(2)+sqrt(3)))^200", 31),
    ):
        with pytest.raises(ParseError) as err:
            parse(src, tower)
        assert err.value.position == pos
        assert str(err.value).startswith(f"coefficients are capped at {MAX_DIGITS} digits")
    # At the cap: 2^14284 (14285 bits) and the largest literal, above and below z.
    assert parse_poly("(2^70)^200*2^200*2^84*z", tower).lead == tower.rational(2**14284)
    big = 10**MAX_DIGITS - 1
    assert parse_poly(f"z/{big}", tower).lead == tower.rational(Fraction(1, big))
    assert parse_poly("(10^200)^21*10^99", tower) == Polynomial.constant(tower.rational(10**4299))
    # Over the common denominator 2^14000, the sqrt(2) coordinate reads
    # 2^14300 / 2^14000; the printer reduces it to 2^300.
    x = parse_poly("1/(2^70)^200 + 2^200*2^100*sqrt(2)", tower).lead
    assert x.coords[:3] == (Fraction(1, 2**14000), 0, 2**300)
    # A power whose end coefficients fit is multiplied out.
    assert parse_poly("(2^70*(z+1))^2", tower).coeffs[1] == tower.rational(2**141)


def test_parse_constant_rejects_nonconstant(tower):
    with pytest.raises(ParseError):
        parse_constant("z + 1", tower)


def test_parse_root_mult(tower):
    root, mult = parse_root_mult("(1/2, 3)", tower)
    assert root == Fraction(1, 2) and mult == 3
    root, mult = parse_root_mult("(-1 - i, 2)", tower)
    assert root == tower.rational(-1) - tower.sqrt_gen(0) and mult == 2
    with pytest.raises(ParseError):
        parse_root_mult("(1, 2) junk", tower)
    with pytest.raises(ParseError):
        parse_root_mult("(z, 2)", tower)


def test_iter_objects_strips_comments():
    lines = ["# header", "", "  (0, 2)  # inline", "(1, 1)", "   ", "# end"]
    assert list(iter_objects(lines)) == ["(0, 2)", "(1, 1)"]


def test_fuzz_mutations_raise_only_parse_errors(tower):
    rng = random.Random(58)
    seeds = [
        "z^2*(z-1)*(z-2)^3",
        "1/2 + sqrt(2)*i",
        "-(z + 5)^4 - i*z",
        "sqrt(8) * (z - 1/3)",
    ]
    alphabet = string.ascii_lowercase + string.digits + "+-*/^()., ;"
    for _ in range(400):
        src = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 4)):
            op = rng.randrange(3)
            pos = rng.randrange(len(src)) if src else 0
            if op == 0 and src:
                src[pos] = rng.choice(alphabet)
            elif op == 1:
                src.insert(pos, rng.choice(alphabet))
            elif src:
                del src[pos]
        text = "".join(src)
        try:
            parse_poly(text, tower)
        except ParseError:
            pass  # structured rejection is the only acceptable failure


def test_print_element_shapes(tower):
    i = tower.sqrt_gen(0)
    s2 = tower.sqrt_gen(1)
    assert print_element(tower.zero) == "0"
    assert print_element(tower.rational(Fraction(-3, 2))) == "-3/2"
    assert print_element(s2 * i) == "sqrt(2)*i"
    x = tower.rational(Fraction(1, 2)) + s2 * i
    assert print_element(x) == "1/2 + sqrt(2)*i"


def test_print_poly_shapes(tower):
    z = Polynomial.variable(tower)
    assert print_poly(z * z - 1) == "z^2 - 1"
    assert print_poly(-z) == "-z"
    p = z.scale(tower.sqrt_gen(1) + 1)  # two basis terms force parentheses
    assert print_poly(p) == "(1 + sqrt(2))*z"
    assert parse_poly(print_poly(p), tower) == p


def test_tower_with_non_rational_radicand_prints():
    base = FieldTower.rationals().adjoin_sqrt(2)
    t = base.adjoin_sqrt(1 + base.sqrt_gen(0))
    assert t.describe() == "Q(sqrt(2), sqrt(1 + sqrt(2)))"
    assert repr(t) == "FieldTower(Q(sqrt(2), sqrt(1 + sqrt(2))))"
    root = t.sqrt_gen(1)
    assert str(root) == "sqrt(1 + sqrt(2))"
    p = Polynomial(t, (root, 0, 1 + t.sqrt_gen(0) + root))
    assert str(p) == "(1 + sqrt(2) + sqrt(1 + sqrt(2)))*z^2 + sqrt(1 + sqrt(2))"
    assert repr(p).startswith("Polynomial(")


# -- differential test against the dense oracle in tests/naive_poly.py --------


def _outcome(parse, src, tower):
    """The parsed value, or the exception's class, message, position and
    expected tokens."""
    try:
        return "ok", parse(src, tower)
    except Exception as exc:  # every failure mode is compared, not only ParseError
        return "error", type(exc), str(exc), getattr(exc, "position", None), getattr(
            exc, "expected", None
        )


def _agree(src, tower):
    for parse, oracle in (
        (parse_poly, naive_poly.parse_poly),
        (parse_factored, naive_poly.parse_factored),
    ):
        assert _outcome(parse, src, tower) == _outcome(oracle, src, tower), src


_COORD = st.one_of(st.just(0), st.just(0), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))

# Digits, z, i, sqrt(, operators and parentheses, plus a stray character and
# an unknown symbol; joined with or without blanks, mostly malformed.
_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "12", "z", "i", "sqrt(", "sqrt", "(", ")", "+", "-", "*", "/",
     "^", "**", ",", ";", "q", "$"]
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_parser_matches_dense_oracle_on_printed_input(any_tower, data):
    t = any_tower
    element = st.lists(_COORD, min_size=t.dim, max_size=t.dim).map(t.element)
    p = Polynomial(t, data.draw(st.lists(element, max_size=5)))
    _agree(print_poly(p), t)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    f = random_factored(rng, t, random_kappa(rng, t))
    _agree(print_factored(f), t)


# Well-formed expressions too, so that most of them evaluate.  Powers take
# only an atom or a sum of two, so no tower of powers blows up the sizes.
_ATOMS = st.sampled_from(["0", "1", "2", "3", "z", "i", "sqrt(2)", "sqrt(-3)", "sqrt(1/2)"])


def _binary(sub):
    return st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda e: f"({e[0]} {e[1]} {e[2]})")


_POWERS = st.tuples(st.one_of(_ATOMS, _binary(_ATOMS)), st.integers(0, 5)).map(
    lambda e: f"{e[0]}^{e[1]}"
)
_EXPRESSIONS = st.recursive(
    st.one_of(_ATOMS, _POWERS),
    lambda sub: st.one_of(_binary(sub), sub.map(lambda e: f"-{e}")),
    max_leaves=8,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_parser_matches_dense_oracle_on_token_strings(any_tower, data):
    tokens = data.draw(st.lists(_TOKENS, max_size=12))
    sep = data.draw(st.sampled_from(["", " "]))
    _agree(sep.join(tokens), any_tower)
    _agree(data.draw(_EXPRESSIONS), any_tower)


EDGES = [
    "", " ", "z^200", "z^201", "(z^2)^100", "(z^2)^101", "(z^3)^67", "z^0", "0^0", "(z-z)^300",
    "z^0007", "z^" + "0" * 9 + "1", "2**3", "2^-1", "sqrt(0)", "z + sqrt(0)", "1/sqrt(0)",
    "sqrt(0)^0", "sqrt(z - z) - z", "sqrt(-1)", "sqrt(1/0)", "0/0",
    "z/0", "1/(z-z)", "z/(1+i)", "(z+1)*(z-1) - z*z", "-(-(-z))", "\u0663 + z", "z\n+\t1",
    "1" + "0" * 5000, "(" * 50 + "z" + ")" * 50, "1;", "1 ; (0, 2), (i, -1)", "z; (0,1)",
    "2; (z, 1)", "0; (1, 1)", "1; (1, 0)", "1; (1, 1),", "1; (1 1)", "(1, 2)",
    "(2^200)^71", "(2^200)^72", "((2^200)^200)^200*z", "(1/2^200)^71", "(1/2^200)^72",
    "(2^70)^200*(2^70)^200*z", "(2^70)^200*2^200*2^84*z", "z/((2^70)^200*2^200*2^85)",
    "(10^200)^21*10^99", "(10^200)^21*10^100", "(2^70*(z+1+i+sqrt(2)+sqrt(3)))^200",
    "1; ((2^70)^200*(2^70)^200, 1)", "(2^70)^200*2^200*2^84; (1, 1)",
    "1/(2^70)^200 + 2^200*2^100*sqrt(2)", "1/(2^70)^200 + 2^200*2^86*sqrt(2)*(2^70)^200",
]


@pytest.mark.parametrize("src", EDGES, ids=[repr(src)[:24] for src in EDGES])
def test_parser_matches_dense_oracle_at_the_edges(tower, src):
    _agree(src, tower)
