"""Expression grammar: parsing, error reporting, canonical printing,
and the print/parse round trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dseq.errors import FunctionNotAllowed, ParseError, UnknownVariable
from dseq.fixtures import random_elem_map, random_poly_map, rng_for
from dseq.maps import identity
from dseq.parser import format_map, format_poly, parse_component, parse_map
from dseq.poly import Poly


def test_basic_polynomial():
    p = parse_component("x0^2 + 3/2*x0*x1", 2, "poly")
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert p == x0 ** 2 + (x0 * x1).scale(Fraction(3, 2))


def test_precedence_pow_over_mul_over_add():
    p = parse_component("2*x0^3 + x0", 1, "poly")
    x = Poly.variable(1, 0)
    assert p == (x ** 3).scale(Fraction(2)) + x


def test_minus_is_scaled_addition():
    p = parse_component("x0 - 2*x1", 2, "poly")
    q = parse_component("x0 + -2*x1", 2, "poly")
    assert p == q


def test_parenthesized_power():
    p = parse_component("(x0 + 1)^2", 1, "poly")
    x = Poly.variable(1, 0)
    one = Poly.constant(1, Fraction(1))
    assert p == x ** 2 + x.scale(Fraction(2)) + one


def test_rational_literal():
    p = parse_component("5/3", 1, "poly")
    assert p == Poly.constant(1, Fraction(5, 3))


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_component("x2", 2, "poly")


def test_function_under_poly_base():
    with pytest.raises(FunctionNotAllowed):
        parse_component("sin(x0)", 1, "poly")


def test_syntax_error_carries_position_and_expected():
    with pytest.raises(ParseError) as err:
        parse_component("x0 + ", 1, "poly")
    assert err.value.position == 5
    assert err.value.expected


def test_unclosed_paren():
    with pytest.raises(ParseError):
        parse_component("(x0 + 1", 1, "poly")


def test_bare_x_is_an_error():
    with pytest.raises(ParseError):
        parse_component("x + 1", 1, "poly")


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_component("1/0", 1, "poly")


def test_elementary_product_tree():
    f = parse_map(["sin(x0)*exp(x0)"], 1, 1, "elementary")
    import math
    x = 0.37
    assert f.eval([x])[0] == pytest.approx(math.sin(x) * math.exp(x))


def test_nested_functions():
    f = parse_component("cos(sin(x0) + x1)", 2, "elementary")
    import math
    from dseq.expr import ElemMap
    assert ElemMap(2, 1, [f]).eval([0.5, 0.25])[0] == pytest.approx(
        math.cos(math.sin(0.5) + 0.25))


def test_unknown_function_name():
    with pytest.raises(ParseError):
        parse_component("tan(x0)", 1, "elementary")


def test_canonical_printing():
    p = parse_component("x1*x0*2 + x0^2 - 1/2", 2, "poly")
    assert format_poly(p) == "x0^2 + 2*x0*x1 - 1/2"
    assert format_poly(Poly.zero(2)) == "0"


def test_leading_negative():
    p = parse_component("-x0^2 + x1", 2, "poly")
    assert format_poly(p) == "-x0^2 + x1"


def test_round_trip_in_many_variables():
    # printing reads only the nonzero exponent fields of a monomial
    p = parse_component("x0 + x99999", 100_000, "poly")
    assert format_poly(p) == "x0 + x99999"
    assert parse_component(format_poly(p), 100_000, "poly") == p


def test_map_dimension_check():
    from dseq.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        parse_map(["x0", "x1"], 2, 1, "poly")


@settings(max_examples=60)
@given(st.integers(0, 10 ** 9))
def test_poly_round_trip(seed):
    rng = rng_for(seed, "parser-roundtrip")
    m = random_poly_map(rng, rng.choice([1, 2, 3]), rng.choice([1, 2]))
    again = parse_map(format_map(m), m.dom, m.cod, "poly")
    assert again == m


@settings(max_examples=60)
@given(st.integers(0, 10 ** 9))
def test_elem_round_trip(seed):
    rng = rng_for(seed, "parser-roundtrip-elem")
    m = random_elem_map(rng, rng.choice([1, 2]), rng.choice([1, 2]))
    again = parse_map(format_map(m), m.dom, m.cod, "elementary")
    assert again.equal(m, 1e-12)


def test_format_map_returns_component_strings():
    m = identity(2)
    assert format_map(m) == ["x0", "x1"]
