"""Component expression grammar: parsing and canonical printing.

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := "-" factor | atom ("^" nat)?
    atom   := rational | "x" nat | fn "(" expr ")" | "(" expr ")"
    rational := nat ("/" posnat)?
    fn     := "sin" | "cos" | "exp"

"-" is surface syntax only: both the binary and the unary form parse as
addition of a (-1)-scaled operand.  Function atoms are rejected under the
polynomial base.  Printing emits polynomial terms in the canonical
(descending graded-lexicographic) order, so print-then-parse reproduces the
map exactly; elementary trees print structurally.
"""

from fractions import Fraction

from . import expr as et
from .errors import FunctionNotAllowed, ParseError, UnknownVariable
from .maps import _text, map_class

_FUNCTIONS = ("sin", "cos", "exp")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text):
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
            tokens.append(_Token("num", text[i:j], i))
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
                tokens.append(_Token("var", text[j:k], i))
                i = k
                continue
            tokens.append(_Token("name", name, i))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i,
                         ("number", "variable", "function", "operator"))
    tokens.append(_Token("end", "", n))
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

    @staticmethod
    def nat(tok):
        """The natural number a num or var token spells; Python refuses to
        convert decimal strings of more than 4,300 digits."""
        try:
            return int(tok.text)
        except ValueError:
            raise ParseError(f"number of {len(tok.text)} digits is too long",
                             tok.pos) from None

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
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'}",
                             tok.pos, expected)
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos,
                             ("'+'", "'-'", "'*'", "end of input"))
        return value

    def expr(self):
        summands = [self.term()]
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            summands.append(self.neg(rhs) if op.kind == "-" else rhs)
        return summands[0] if len(summands) == 1 else self.ops["sum"](summands)

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            self.take()
            value = self.ops["mul"](value, self.factor())
        return value

    def factor(self):
        if self.peek().kind == "-":
            self.take()
            return self.neg(self.factor())
        value = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.expect("num", ("natural exponent",))
            value = self.ops["pow"](value, self.nat(tok))
        return value

    def atom(self):
        tok = self.take()
        if tok.kind == "num":
            value = Fraction(self.nat(tok))
            if self.peek().kind == "/":
                self.take()
                den = self.expect("num", ("positive denominator",))
                divisor = self.nat(den)
                if divisor == 0:
                    raise ParseError("zero denominator", den.pos,
                                     ("positive denominator",))
                value /= divisor
            return self.cls._constant(self.dom, value)
        if tok.kind == "var":
            index = self.nat(tok)
            if index >= self.dom:
                raise UnknownVariable(f"variable x{index} outside domain "
                                      f"of dimension {self.dom}", tok.pos)
            return self.cls._variable(self.dom, index)
        if tok.kind == "name":
            if tok.text not in _FUNCTIONS:
                raise ParseError(f"unknown function {tok.text!r}", tok.pos,
                                 _FUNCTIONS)
            fn = self.ops.get(tok.text)
            if fn is None:
                raise FunctionNotAllowed(f"function {tok.text} not allowed "
                                         f"in a {self.cls.base} component",
                                         tok.pos)
            self.expect("(", ("'('",))
            arg = self.expr()
            self.expect(")", ("')'",))
            return fn(arg)
        if tok.kind == "(":
            value = self.expr()
            self.expect(")", ("')'",))
            return value
        raise ParseError(f"unexpected {tok.text or 'end of input'}", tok.pos,
                         ("number", "variable", "function", "'('"))


def parse_component(text, dom, base="poly"):
    """Parse one component expression into a polynomial or a tree."""
    parser = _Parser(_tokenize(text), map_class(base), dom)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.peek().pos) from None
    except OverflowError as exc:       # a base's size budget
        raise ParseError(str(exc), parser.peek().pos) from None


def parse_map(components, dom, cod, base="poly"):
    parsed = [parse_component(c, dom, base) for c in components]
    return map_class(base)(dom, cod, parsed)


def _format_coeff_monomial(coeff, exps):
    mono = "*".join(f"x{j}" if e == 1 else f"x{j}^{_text(e)}"
                    for j, e in enumerate(exps) if e)
    mag = abs(coeff)
    if not mono:
        return _text(mag)
    if mag == 1:
        return mono
    return f"{_text(mag)}*{mono}"


def format_poly(p):
    """Canonical text form; parse(format(p)) rebuilds p exactly."""
    if not p.terms:
        return "0"
    out = []
    for i, (exps, coeff) in enumerate(p.terms):
        body = _format_coeff_monomial(coeff, exps)
        if i == 0:
            out.append(("-" if coeff < 0 else "") + body)
        else:
            out.append((" - " if coeff < 0 else " + ") + body)
    return "".join(out)


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
