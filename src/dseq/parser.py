"""Component expression grammar: parsing and canonical printing.

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := "-" factor | atom ("^" nat)?
    atom   := rational | "x" nat | fn "(" expr ")" | "(" expr ")"
    rational := nat ("/" posnat)?
    fn     := "sin" | "cos" | "exp"

"-" is surface syntax only: both the binary and the unary form parse as
addition of a (-1)-scaled operand.  Function atoms are rejected under the
polynomial base, where a term that is a product of plain atoms (rationals
and variables, each with an optional power and at most one unary minus) is
read straight into one packed monomial.  Printing emits polynomial terms in
the canonical (descending graded-lexicographic) order, so print-then-parse
reproduces the map exactly; elementary trees print structurally.
"""

import re
from fractions import Fraction
from itertools import takewhile
from math import gcd

from . import expr as et
from .errors import FunctionNotAllowed, ParseError, UnknownVariable
from .maps import _check_constant_power, _text, map_class
from .poly import _factors, _summed

_FUNCTIONS = ("sin", "cos", "exp")

# One token per match, after optional whitespace: an operator, a variable, a
# number, a run of letters or any other character.
_TOKEN = re.compile(r"\s*(?:([-+*^/()])|x(\d+)|(\d+)|([^\W\d_]+)|(\S))")


def _tokenize(text):
    """(kind, text, position) triples and an "end" token; a "var" token's
    text is its index, and an operator is its own kind."""
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        tok, pos = m[group], m.start(group)
        if group == 4:      # [^\W\d_] also matches numerals such as "²"
            name = "".join(takewhile(str.isalpha, tok))
            if name == "x":
                raise ParseError("variable needs an index", pos, ("x<nat>",))
            if name != tok:
                group, tok, pos = 5, tok[len(name)], pos + len(name)
        if group == 5:
            raise ParseError(f"unexpected character {tok!r}", pos,
                             ("number", "variable", "function", "operator"))
        kind = (tok, "var", "num", "name")[group - 1]
        tokens.append((kind, tok, pos - (kind == "var")))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent that builds components in a base's component
    algebra (`CoordMap._constant`, `_variable` and `_ops`)."""

    def __init__(self, tokens, cls, dom):
        self.tokens = tokens
        self.i = 0
        self.cls = cls
        self.dom = dom
        self.ops = cls._ops
        self.packed = cls.base == "poly"

    @staticmethod
    def nat(tok):
        """The natural number a num or var token spells; Python refuses to
        convert decimal strings of more than 4,300 digits."""
        try:
            return int(tok[1])
        except ValueError:
            raise ParseError(f"number of {len(tok[1])} digits is too long",
                             tok[2]) from None

    def neg(self, value):
        return self.ops["mul"](self.cls._constant(self.dom, -1), value)

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, expected):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1] or 'end of input'}",
                             tok[2], expected)
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2],
                             ("'+'", "'-'", "'*'", "end of input"))
        return value

    def expr(self):
        plain, built = [], []
        negative = False
        while True:
            self.term(negative, plain, built)
            kind = self.peek()[0]
            if kind != "+" and kind != "-":
                break
            self.take()
            negative = kind == "-"
        if plain:
            built.append(_summed(self.dom, plain))
        return built[0] if len(built) == 1 else self.ops["sum"](built)

    def term(self, negative, plain, built):
        """One summand, negated if `negative`.  A polynomial product of plain
        atoms goes to `plain` as ([(variable, exponent), ...], numerator,
        denominator); any other is read again from its start and built in
        the component algebra, factor by factor, into `built`."""
        tokens, start = self.tokens, self.i
        num, den, exps = 1, 1, []
        while self.packed:
            minus = tokens[self.i][0] == "-"    # a chain takes `factor`
            tok = tokens[self.i + minus]
            if tok[0] != "num" and tok[0] != "var":
                self.i = start
                break
            self.i += 1 + minus
            if tok[0] == "var":
                exps.append((self.variable(tok), self.exponent(1)))
            else:
                c, d = self.rational(tok)
                n = self.exponent(1)
                if n != 1:
                    _check_constant_power(Fraction(c, d), n)
                    c, d = (Fraction(c, d) ** n).as_integer_ratio()
                num, den = num * c, den * d
            num = -num if minus else num
            if tokens[self.i][0] != "*":
                plain.append((exps, -num if negative else num, den))
                return
            self.i += 1
        value = self.factor()
        while self.peek()[0] == "*":
            self.take()
            value = self.ops["mul"](value, self.factor())
        built.append(self.neg(value) if negative else value)

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return self.neg(self.factor())
        value = self.atom()
        n = self.exponent()
        return value if n is None else self.ops["pow"](value, n)

    def exponent(self, absent=None):
        """The natural exponent after a "^", or `absent`."""
        if self.peek()[0] != "^":
            return absent
        self.take()
        return self.nat(self.expect("num", ("natural exponent",)))

    def rational(self, tok):
        """(numerator, denominator) of the num token just taken."""
        num = self.nat(tok)
        if self.peek()[0] != "/":
            return num, 1
        self.take()
        tok = self.expect("num", ("positive denominator",))
        den = self.nat(tok)
        if den == 0:
            raise ParseError("zero denominator", tok[2],
                             ("positive denominator",))
        return num, den

    def variable(self, tok):
        index = self.nat(tok)
        if index >= self.dom:
            raise UnknownVariable(f"variable x{index} outside domain "
                                  f"of dimension {self.dom}", tok[2])
        return index

    def atom(self):
        tok = self.take()
        if tok[0] == "num":
            return self.cls._constant(self.dom, Fraction(*self.rational(tok)))
        if tok[0] == "var":
            return self.cls._variable(self.dom, self.variable(tok))
        if tok[0] == "name":
            if tok[1] not in _FUNCTIONS:
                raise ParseError(f"unknown function {tok[1]!r}", tok[2],
                                 _FUNCTIONS)
            fn = self.ops.get(tok[1])
            if fn is None:
                raise FunctionNotAllowed(f"function {tok[1]} not allowed "
                                         f"in a {self.cls.base} component",
                                         tok[2])
            self.expect("(", ("'('",))
            arg = self.expr()
            self.expect(")", ("')'",))
            return fn(arg)
        if tok[0] == "(":
            value = self.expr()
            self.expect(")", ("')'",))
            return value
        raise ParseError(f"unexpected {tok[1] or 'end of input'}", tok[2],
                         ("number", "variable", "function", "'('"))


def parse_component(text, dom, base="poly"):
    """Parse one component expression into a polynomial or a tree."""
    parser = _Parser(_tokenize(text), map_class(base), dom)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.peek()[2]) from None
    except OverflowError as exc:       # a base's size budget
        raise ParseError(str(exc), parser.peek()[2]) from None


def parse_map(components, dom, cod, base="poly"):
    parsed = [parse_component(c, dom, base) for c in components]
    return map_class(base)(dom, cod, parsed)


def format_poly(p):
    """Canonical text form; parse(format(p)) rebuilds p exactly.  Reads the
    nonzero exponent fields, and each coefficient off its numerator."""
    n, w, den = p.nvars, p._w, p._den
    low = (1 << (n * w)) - 1
    out = []
    for m, c in zip(p._mons, p._nums):
        mono = "*".join(f"x{n - 1 - s // w}" if e == 1 else
                        f"x{n - 1 - s // w}^{_text(e)}"
                        for s, e in _factors(m & low, w))
        g = gcd(c, den)
        mag = _text(abs(c) // g) if g == den else (
            f"{_text(abs(c) // g)}/{_text(den // g)}")
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        out.append((" - " if c < 0 else " + ") + body)
    return ("-" if p._nums[0] < 0 else "") + "".join(out)[3:] if out else "0"


def _wrap(value, ctx):
    """Pieces of a (pieces, precedence) value placed in a context that
    binds at ctx: 1 a summand, 2 a factor, 3 a power base."""
    pieces, prec = value
    return pieces if prec >= ctx else ("(", pieces, ")")


# Trees print as (pieces, precedence) pairs; pieces nest, and are joined once
# at the end so that a deep tree costs time and memory linear in its text.
# Precedence: 1 a sum, 2 a product, power or signed or fractional constant,
# 3 an atom.
_TEXT = {
    "add": lambda p, q: ((p[0], " + ", q[0]), 1),
    "mul": lambda p, q: ((_wrap(p, 2), "*", _wrap(q, 2)), 2),
    "pow": lambda p, n: ((_wrap(p, 3), f"^{n}"), 2),
    **{name: (lambda p, name=name: ((f"{name}(", p[0], ")"), 3))
       for name in _FUNCTIONS},
}


def _text_leaf(node):
    if node[0] == "var":
        return f"x{node[1]}", 3
    v = node[1]
    return _text(v), 2 if v < 0 or v.denominator != 1 else 3


def _join(pieces):
    out, stack = [], [pieces]
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            out.append(top)
        else:
            stack.extend(reversed(top))
    return "".join(out)


def format_map(m):
    if m.base == "poly":
        return [format_poly(c) for c in m.components]
    return [_join(pieces) for pieces, _ in et._run(m.tape, _TEXT, _text_leaf)]
