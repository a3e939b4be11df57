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
from .maps import map_class
from .poly import Poly

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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
                while k < n and text[k].isdigit():
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


class _PolyBuilder:
    def __init__(self, dom):
        self.dom = dom

    def const(self, value):
        return Poly.constant(self.dom, value)

    def var(self, index, pos):
        if index >= self.dom:
            raise UnknownVariable(
                f"variable x{index} outside domain of dimension {self.dom}", pos)
        return Poly.variable(self.dom, index)

    def fn(self, name, arg, pos):
        raise FunctionNotAllowed(
            f"function {name} not allowed in a polynomial component", pos)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def pow(self, a, n):
        return a ** n

    def neg(self, a):
        return a.scale(-1)


class _ElemBuilder:
    def __init__(self, dom):
        self.dom = dom

    def const(self, value):
        return et.const(value)

    def var(self, index, pos):
        if index >= self.dom:
            raise UnknownVariable(
                f"variable x{index} outside domain of dimension {self.dom}", pos)
        return et.var(index)

    def fn(self, name, arg, pos):
        return getattr(et, name)(arg)

    def add(self, a, b):
        return et.add(a, b)

    def mul(self, a, b):
        return et.mul(a, b)

    def pow(self, a, n):
        return et.pow_(a, n)

    def neg(self, a):
        return et.neg(a)


class _Parser:
    def __init__(self, tokens, builder):
        self.tokens = tokens
        self.i = 0
        self.b = builder

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
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            if op.kind == "-":
                rhs = self.b.neg(rhs)
            value = self.b.add(value, rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            self.take()
            value = self.b.mul(value, self.factor())
        return value

    def factor(self):
        if self.peek().kind == "-":
            self.take()
            return self.b.neg(self.factor())
        value = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.expect("num", ("natural exponent",))
            value = self.b.pow(value, int(tok.text))
        return value

    def atom(self):
        tok = self.take()
        if tok.kind == "num":
            value = Fraction(int(tok.text))
            if self.peek().kind == "/":
                self.take()
                den = self.expect("num", ("positive denominator",))
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos,
                                     ("positive denominator",))
                value = Fraction(int(tok.text), int(den.text))
            return self.b.const(value)
        if tok.kind == "var":
            return self.b.var(int(tok.text), tok.pos)
        if tok.kind == "name":
            if tok.text not in _FUNCTIONS:
                raise ParseError(f"unknown function {tok.text!r}", tok.pos,
                                 _FUNCTIONS)
            self.expect("(", ("'('",))
            arg = self.expr()
            self.expect(")", ("')'",))
            return self.b.fn(tok.text, arg, tok.pos)
        if tok.kind == "(":
            value = self.expr()
            self.expect(")", ("')'",))
            return value
        raise ParseError(f"unexpected {tok.text or 'end of input'}", tok.pos,
                         ("number", "variable", "function", "'('"))


def parse_component(text, dom, base="poly"):
    """Parse one component expression into a polynomial or a tree."""
    builder = _PolyBuilder(dom) if base == "poly" else _ElemBuilder(dom)
    return _Parser(_tokenize(text), builder).parse()


def parse_map(components, dom, cod, base="poly"):
    parsed = [parse_component(c, dom, base) for c in components]
    return map_class(base)(dom, cod, parsed)


def _format_coeff_monomial(coeff, exps):
    mono = "*".join(f"x{j}" if e == 1 else f"x{j}^{e}"
                    for j, e in enumerate(exps) if e)
    mag = abs(coeff)
    if not mono:
        return str(mag)
    if mag == 1:
        return mono
    return f"{mag}*{mono}"


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


def format_tree(node, ctx=1):
    """Structural text form; reparsing yields an equal map.

    ctx: 1 inside a sum, 2 inside a product, 3 as a power base.
    """
    tag = node[0]
    if tag == "const":
        v = node[1]
        if ctx >= 3 and (v < 0 or v.denominator != 1):
            return f"({v})"
        return str(v)
    if tag == "var":
        return f"x{node[1]}"
    if tag in _FUNCTIONS:
        return f"{tag}({format_tree(node[1], 1)})"
    if tag == "pow":
        s = f"{format_tree(node[1], 3)}^{node[2]}"
        return f"({s})" if ctx >= 3 else s
    if tag == "mul":
        s = f"{format_tree(node[1], 2)}*{format_tree(node[2], 2)}"
        return f"({s})" if ctx >= 3 else s
    if tag == "add":
        s = f"{format_tree(node[1], 1)} + {format_tree(node[2], 1)}"
        return f"({s})" if ctx >= 2 else s
    raise AssertionError(f"bad node {tag}")


def format_component(comp):
    if isinstance(comp, Poly):
        return format_poly(comp)
    return format_tree(comp)


def format_map(m):
    fmt = format_poly if m.base == "poly" else format_tree
    return [fmt(c) for c in m.components]
