"""Expression grammar: parsing, error reporting, canonical printing,
and the print/parse round trip."""

import json
import os
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dseq import parser
from dseq.comonad import omega
from dseq.errors import FunctionNotAllowed, ParseError, UnknownVariable
from dseq.fixtures import random_elem_map, random_poly_map, rng_for
from dseq.jsonio import load_map
from dseq.maps import identity
from dseq.parser import (_tokenize, format_map, format_poly, parse_component,
                         parse_map)
from dseq.poly import Poly

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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


# Generated polynomial texts against the same expressions built by the Poly
# algebra: (text, precedence, value), precedence 1 a sum, 2 a product, 3 a
# signed factor or power, 4 an atom.

TEXT_DOM = 3
spaces = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\xa0"])


def wrapped(node, prec):
    text, p, value = node
    return node if p >= prec else (f"({text})", 4, value)


rationals = st.builds(
    lambda n, d, slash: (f"{n}/{d}" if slash else str(n), 4,
                         Poly.constant(TEXT_DOM, Fraction(n, d if slash else 1))),
    st.sampled_from([0, 0, 1, 2, 3, 7, 12, 10 ** 20]), st.integers(1, 6),
    st.booleans())
variables = st.builds(
    lambda j: (f"x{j}", 4, Poly.variable(TEXT_DOM, j)),
    st.integers(0, TEXT_DOM - 1))


def combined(children):
    def sum_(a, b, minus, s1, s2):
        a, b = wrapped(a, 1), wrapped(b, 2)
        op = "-" if minus else "+"
        return (f"{a[0]}{s1}{op}{s2}{b[0]}", 1,
                a[2] - b[2] if minus else a[2] + b[2])

    def product(a, b, s1, s2):
        a, b = wrapped(a, 2), wrapped(b, 2)
        return f"{a[0]}{s1}*{s2}{b[0]}", 2, a[2] * b[2]

    def power(a, n, s):
        a = wrapped(a, 4)
        return f"{a[0]}{s}^{s}{n}", 3, a[2] ** n

    def negated(a, s):
        a = wrapped(a, 3)
        return f"-{s}{a[0]}", 3, -a[2]

    def parenthesised(a, s1, s2):
        return f"({s1}{a[0]}{s2})", 4, a[2]

    return st.one_of(
        st.builds(sum_, children, children, st.booleans(), spaces, spaces),
        st.builds(product, children, children, spaces, spaces),
        st.builds(power, children, st.integers(0, 3), spaces),
        st.builds(negated, children, spaces),
        st.builds(parenthesised, children, spaces, spaces))


poly_texts = st.recursive(st.one_of(rationals, variables), combined,
                          max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(poly_texts, spaces, spaces)
def test_parse_matches_the_algebra(node, s1, s2):
    text, _, value = node
    assert parse_component(s1 + text + s2, TEXT_DOM, "poly") == value


@pytest.mark.parametrize("text", ["0^0", "0^0*x0", "-0^0", "0^3 + x1",
                                  "- - -x0", "x0*x0*x1*x0", "0*x0^5 + x1",
                                  "x0 - x0", "3/6*x1 + -1/2*x1", "(((x2)))"])
def test_parse_edge_texts_match_the_algebra(text):
    x0, x1, x2 = (Poly.variable(TEXT_DOM, j) for j in range(TEXT_DOM))
    one, zero = Poly.constant(TEXT_DOM, 1), Poly.zero(TEXT_DOM)
    expected = {"0^0": one, "0^0*x0": x0, "-0^0": -one, "0^3 + x1": x1,
                "- - -x0": -x0, "x0*x0*x1*x0": x0 ** 3 * x1,
                "0*x0^5 + x1": x1, "x0 - x0": zero,
                "3/6*x1 + -1/2*x1": zero, "(((x2)))": x2}[text]
    got = parse_component(text, TEXT_DOM, "poly")
    assert got == expected
    assert format_poly(got) == format_poly(expected)


# Each kind of parse error: message, position and expected list, as the
# character-by-character parser reported them.
ERRORS = [
    ("2*3^9100 + x0", ParseError,
     "constant power would have more than 4300 digits", 9, ()),
    ("x1 - (x0 + 1)^3000", ParseError,
     "power would cost about 9006001 term products, over the budget of "
     "250000", 18, ()),
    ("x0 + " + "9" * 4301, ParseError, "number of 4301 digits is too long",
     5, ()),
    ("x" + "1" * 4301, ParseError, "number of 4301 digits is too long", 0, ()),
    ("x0*x2", UnknownVariable, "variable x2 outside domain of dimension 2",
     3, ()),
    ("x0 - 3/0*x1", ParseError, "zero denominator", 7,
     ("positive denominator",)),
    ("x0 + ٣/0", ParseError, "zero denominator", 7, ("positive denominator",)),
    ("x0^2^3", ParseError, "unexpected '^'", 4,
     ("'+'", "'-'", "'*'", "end of input")),
    ("x0 x1", ParseError, "unexpected '1'", 3,
     ("'+'", "'-'", "'*'", "end of input")),
    ("x0 + x1 +", ParseError, "unexpected end of input", 9,
     ("number", "variable", "function", "'('")),
    ("x0 + -", ParseError, "unexpected end of input", 6,
     ("number", "variable", "function", "'('")),
    ("", ParseError, "unexpected end of input", 0,
     ("number", "variable", "function", "'('")),
    ("x1 + 2^", ParseError, "unexpected end of input", 7,
     ("natural exponent",)),
    ("x0 + x", ParseError, "variable needs an index", 5, ("x<nat>",)),
    ("x²", ParseError, "variable needs an index", 0, ("x<nat>",)),
    ("x0 ²", ParseError, "unexpected character '²'", 3,
     ("number", "variable", "function", "operator")),
    ("x0 * y1", ParseError, "unknown function 'y'", 5, ("sin", "cos", "exp")),
    ("x0 + sin(x1)", FunctionNotAllowed,
     "function sin not allowed in a poly component", 5, ()),
    ("x0 + 2*(x1", ParseError, "unexpected end of input", 10, ("')'",)),
    ("-(x0", ParseError, "unexpected end of input", 4, ("')'",)),
]


@pytest.mark.parametrize("text, kind, message, position, expected", ERRORS)
def test_parse_errors_are_pinned(text, kind, message, position, expected):
    with pytest.raises(ParseError) as err:
        parse_component(text, 2, "poly")
    assert type(err.value) is kind
    assert err.value.position == position
    assert err.value.expected == expected
    detail = f"{message} at position {position}"
    if expected:
        detail += " (expected " + ", ".join(expected) + ")"
    assert str(err.value) == detail


def char_loop_tokenize(text):
    """The character-by-character tokenizer the compiled pattern replaced,
    returning (kind, text, position) triples."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            name = text[i:j]
            if name == "x":
                k = j
                while k < n and text[k].isdecimal():
                    k += 1
                if k == j:
                    raise ParseError("variable needs an index", i, ("x<nat>",))
                tokens.append(("var", text[j:k], i))
                i = k
                continue
            tokens.append(("name", name, i))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i,
                         ("number", "variable", "function", "operator"))
    tokens.append(("end", "", n))
    return tokens


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position, exc.expected


# Digits, letters, spaces and numerals of several scripts: Arabic-Indic and
# fullwidth digits, superscripts, fractions, Roman numerals (letter-like
# numbers that are no letters), titlecase and modifier letters, combining
# marks, no-break and em spaces.
TRICKY = "x0123+-*^/() \t\n_.٣٠０９²³¹½Ⅻéªǅ々ßΣ́\xa0\u2003\u3000"


@settings(max_examples=500, deadline=None)
@given(st.text(st.one_of(st.sampled_from(TRICKY), st.characters()),
               max_size=12))
def test_tokens_match_the_character_loop(text):
    assert (tokens_or_error(_tokenize, text)
            == tokens_or_error(char_loop_tokenize, text))


@pytest.mark.parametrize("text", ["x²", "ab²c", "x1²", "xy1", "sin٣",
                                  "x٣ + ½", "Ⅻx0", " \u3000x0\u2003", "x_1"])
def test_tricky_tokens_match_the_character_loop(text):
    assert (tokens_or_error(_tokenize, text)
            == tokens_or_error(char_loop_tokenize, text))


# The scan of flat sums against the recursive-descent parser alone: plain
# products with odd whitespace, per-atom unary minus and double minus, a
# leading "+" or "*", repeated variables, zero and unit powers, juxtaposed
# atoms, trailing operators, zero denominators, numbers of 4,301 digits and
# variables outside the domain.
SCAN_DOM = 2
odd_spaces = st.sampled_from(["", "", "", " ", "   ", "\t", "\n ", "\xa0",
                              "\u3000"])
plain_atoms = st.one_of(
    st.sampled_from(["x0", "x1", "x01", "x١", "0", "1", "2", "3/2", "7/4",
                     "0/5", "٣/2", "12/8"]),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(0, 20), st.integers(1, 9)))
faulty_atoms = st.sampled_from(["x2", "x" + "1" * 4301, "9" * 4301, "1/0",
                                "x", "x0x1"])
plain_powers = st.sampled_from(["", "", "", "^0", "^1", "^2", "^3", " ^ 2"])
faulty_powers = st.sampled_from(["^ 9100", "^" + "9" * 4301, "^", "^^2"])
plain_minus = st.sampled_from(["", "", "-", "- "])


def factors(atoms, powers, minus):
    return st.builds(lambda m, s, atom, power: f"{m}{s}{atom}{power}",
                     minus, odd_spaces, atoms, powers)


@st.composite
def scan_texts(draw):
    """Texts the scan reads, and texts with faults in any place."""
    ops = st.sampled_from(["+", "-", "*"])
    ends = st.just("")
    factor = factors(plain_atoms, plain_powers, plain_minus)
    if draw(st.booleans()):
        ops = st.sampled_from(["+", "-", "*", "*", "", " "])
        ends = st.sampled_from(["", "", "", "+", "*", "-"])
        factor = factors(st.one_of(plain_atoms, plain_atoms, faulty_atoms),
                         st.one_of(plain_powers, plain_powers, faulty_powers),
                         st.sampled_from(["", "", "-", "- ", "--"]))
    out = [draw(ends), draw(odd_spaces), draw(factor)]
    for _ in range(draw(st.integers(0, 6))):
        out += [draw(odd_spaces), draw(ops), draw(odd_spaces), draw(factor)]
    out += [draw(odd_spaces), draw(ends), draw(odd_spaces)]
    return "".join(out)


def packed_or_error(text):
    try:
        p = parse_component(text, SCAN_DOM, "poly")
    except ParseError as exc:
        return type(exc), str(exc), exc.position, exc.expected
    return p._w, p._mons, p._nums, p._den


def test_pinned_texts_are_read_by_the_scan():
    for text in ["0^0", "-x0^0*x1", "2*x0*x0", "x0 - -x1", "-1/2", "3/2^2",
                 "x0^2+3/2*x1-x0*x1", "3 / 2 * x0 ^ 2 - - x1"]:
        assert parser._plain_sum(text, SCAN_DOM) is not None, text
    for text in ["+x0", "2x0", "x0 x1", "x0 +", "x2", "1/0", "x0^2^3", ""]:
        assert parser._plain_sum(text, SCAN_DOM) is None, text


@settings(max_examples=500, deadline=None)
@given(scan_texts())
def test_scan_agrees_with_the_descent_parser(text):
    got = packed_or_error(text)
    with mock.patch.object(parser, "_plain_sum", lambda text, dom: None):
        assert got == packed_or_error(text)


def no_descent(*args):
    raise AssertionError("the scan handed the text to _Parser")


def test_printed_tower_components_are_read_by_the_scan():
    """Every component `format_poly` writes for a dense order-3 tower, and
    a polynomial of degree 17, whose fields are wider than 4 bits, is read
    by the scan alone, and reads back to the same polynomial."""
    maps = []
    for name in ("map_dense3_first.json", "map_dense3_second.json"):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            maps.append(load_map(json.load(fh)))
    f, g = maps
    tower = omega(f, 3).compose(omega(g, 3))
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    wide = (x0 - Poly.constant(2, Fraction(3, 2)) * x1) ** 17 + x1
    assert wide._w > 4
    with mock.patch.object(parser, "_Parser", no_descent):
        for term in tower.terms:
            assert parse_map(format_map(term), term.dom, term.cod) == term
        assert parse_component(format_poly(wide), 2) == wide


def test_scan_reads_degrees_that_double_term_by_term():
    """A degree past the fields' range makes the scan read the text again
    at least twice as wide, so a sum whose degrees double term by term is
    read a few times, not once per term."""
    text = " + ".join(f"x0^{2 ** i}" for i in range(1200))
    with mock.patch.object(parser, "_Parser", no_descent):
        p = parse_component(text, 1)
    assert [e for (e,), _ in p.terms] == [2 ** i for i in range(1199, -1, -1)]
    assert p._w == (2 ** 1199).bit_length()


# Inputs on which a scan whose spaces can be split between two \s* takes
# time quadratic or worse in the text: each must be read, or refused with the
# error the descent parser reports, within a second on either base.
LONG_GAP = " " * 50_000
COST_CASES = [
    pytest.param(" " * 100_000 + "?", "unexpected character '?'", 100_000,
                 id="spaces"),
    pytest.param("x0" + " " * 100_000 + "?", "unexpected character '?'",
                 100_002, id="x0-spaces"),
    pytest.param(LONG_GAP.join(["x0", "+", "3/2*x1^2", "-", "x0", "*", "-x1"]),
                 None, "x0 + 3/2*x1^2 - x0*-x1", id="spaced-sum"),
]


@pytest.mark.parametrize("base", ["poly", "elementary"])
@pytest.mark.parametrize("text, message, where", COST_CASES)
def test_parse_cost_is_linear_in_the_text(base, text, message, where):
    start = time.perf_counter()
    try:
        got = parse_component(text, SCAN_DOM, base)
    except ParseError as exc:
        got = exc
    assert time.perf_counter() - start < 1.0
    if message is None:
        assert got == parse_component(where, SCAN_DOM, base)
    else:
        assert (str(got), got.position, got.expected) == (
            f"{message} at position {where} (expected number, variable, "
            "function, operator)", where,
            ("number", "variable", "function", "operator"))
