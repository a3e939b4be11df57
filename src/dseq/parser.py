"""Component expression grammar: parsing and canonical printing.

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := "-" factor | atom ("^" nat)?
    atom   := rational | "x" nat | fn "(" expr ")" | "(" expr ")"
    rational := nat ("/" posnat)?
    fn     := "sin" | "cos" | "exp"

"-" is surface syntax only: both the binary and the unary form parse as
addition of a (-1)-scaled operand.  Function atoms are rejected under the
polynomial base.  There, a component that is a flat sum of plain products
(rationals and variables, each with an optional power and at most one unary
minus: what `format_poly` writes) is read by `_plain_sum` with string
splits, each distinct factor parsed once, straight into packed monomials,
in time linear in the text.  Any other text, and any that the scan finds
at fault, is read again by the recursive-descent `_Parser`, which builds
in the base's component algebra and reports every error.  Printing emits
polynomial terms in the canonical (descending graded-lexicographic) order,
so print-then-parse reproduces the map exactly; elementary trees print
structurally.
"""

import re
from fractions import Fraction
from itertools import takewhile
from math import gcd

from . import expr as et
from .errors import FunctionNotAllowed, ParseError, UnknownVariable
from .maps import _check_constant_power, _check_dom, _text, map_class
from .poly import _NARROW, _merged, _width

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
        summands = [self.term()]
        while self.peek()[0] in ("+", "-"):
            minus = self.take()[0] == "-"
            value = self.term()
            summands.append(self.neg(value) if minus else value)
        return summands[0] if len(summands) == 1 else self.ops["sum"](summands)

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.take()
            value = self.ops["mul"](value, self.factor())
        return value

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return self.neg(self.factor())
        value = self.atom()
        if self.peek()[0] != "^":
            return value
        self.take()
        n = self.nat(self.expect("num", ("natural exponent",)))
        return self.ops["pow"](value, n)

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


# One factor of a flat sum of plain products: a variable or a rational, and
# an optional power.
_PLAIN = re.compile(r"(?:x(\d+)|(\d+)(?:/(\d+))?)(?:\^(\d+))?")
_OPERATORS = "+-*/^"


class _Factors(dict):
    """Factor text -> (packed monomial at field width w, numerator,
    denominator), each text parsed on its first lookup.  A text that is no
    plain factor, a variable out of range and a zero denominator raise
    ValueError, and a constant power over the digit limit OverflowError."""

    def __init__(self, dom, w):
        self.dom, self.w = dom, w

    def __missing__(self, text):
        m = _PLAIN.fullmatch(text)
        if m is None:
            raise ValueError(text)
        var, num, den, power = m.groups()
        n = 1 if power is None else int(power)
        if var is not None:
            j = int(var)
            if j >= self.dom:
                raise ValueError(text)
            top = self.dom * self.w
            parts = (n << top) + (n << (top - (j + 1) * self.w)), 1, 1
        else:
            c, d = int(num), 1 if den is None else int(den)
            if not d:
                raise ValueError(text)
            if n != 1:
                _check_constant_power(Fraction(c, d), n)
                c, d = (Fraction(c, d) ** n).as_integer_ratio()
            parts = 0, c, d
        self[text] = parts
        return parts


def _plain_sum(text, dom, w=_NARROW):
    """The polynomial a flat sum of plain products spells, its monomials
    packed at field width w or wider; None for any other text and wherever
    `_Parser` could object (a number of more than 4,300 digits, a variable
    out of range, a zero denominator, a constant power over the digit
    limit), so that it reads the text again and reports.

    Whitespace goes first, unless a gap has an atom character on both
    sides.  Every "-" becomes "+-" and the text is split at "+": a piece
    that is empty, a lone "-" or ends in "*" is joined to the next, which
    must start with "-" (a unary minus).  Each product is split at "*" and
    its factors are summed into one packed monomial."""
    words = text.split()
    for left, right in zip(words, words[1:]):
        if left[-1] not in _OPERATORS and right[0] not in _OPERATORS:
            return None
    text = "".join(words)
    # A factor takes one unary minus at most: two minus signs in a row are
    # a binary or leading "-" and a factor's.
    if "---" in text or "+--" in text or "*--" in text:
        return None
    top = dom * w
    factors, mons, nums, dens = _Factors(dom, w), [], [], []
    head = None
    try:
        cap = 1 << (top + w)
        for piece in text.replace("-", "+-").split("+"):
            if head is not None:
                if piece[:1] != "-":
                    return None
                piece = head + piece
            if not piece or piece[-1] in "-*":
                head = piece
                continue
            head = None
            minus = piece.count("-")
            if minus:
                piece = piece.replace("-", "")
            mon, num, den = 0, -1 if minus & 1 else 1, 1
            for factor in piece.split("*"):
                m, c, d = factors[factor]
                mon += m
                num *= c
                den *= d
            if mon >= cap:
                # The degree reached 2^w, and fields may have carried, but
                # only upwards: the degree field bounds the degree.  The
                # text is read again at least twice as wide, so at most a
                # dozen times: an exponent has fewer than 2^14 bits.
                return _plain_sum(text, dom, max(2 * w, _width(mon >> top)))
            mons.append(mon)
            nums.append(num)
            dens.append(den)
    except (ValueError, OverflowError):
        return None
    if head is not None:
        return None
    return _merged(dom, w, mons, nums, dens)


def parse_component(text, dom, base="poly"):
    """Parse one component expression into a polynomial or a tree; a flat
    polynomial sum of plain products is read by `_plain_sum`."""
    cls = map_class(base)
    p = _plain_sum(text, dom) if cls.base == "poly" else None
    if p is not None:
        return p
    parser = _Parser(_tokenize(text), cls, dom)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.peek()[2]) from None
    except OverflowError as exc:       # a base's size budget
        raise ParseError(str(exc), parser.peek()[2]) from None


def parse_map(components, dom, cod, base="poly"):
    _check_dom(dom, "map")
    parsed = [parse_component(c, dom, base) for c in components]
    return map_class(base)(dom, cod, parsed)


def format_poly(p):
    """Canonical text form; parse(format(p)) rebuilds p exactly.  Walks the
    nonzero exponent fields of each monomial, the most significant first,
    printing each (shift, exponent) factor once per call, and reads each
    coefficient off its numerator."""
    n, w, den = p.nvars, p._w, p._den
    low = (1 << (n * w)) - 1
    texts = {}
    out = []
    for m, c in zip(p._mons, p._nums):
        fields, mono = m & low, []
        while fields:
            shift = (fields.bit_length() - 1) // w * w
            e = fields >> shift
            fields -= e << shift
            text = texts.get((shift, e))
            if text is None:
                x = f"x{n - 1 - shift // w}"
                text = texts[shift, e] = x if e == 1 else f"{x}^{_text(e)}"
            mono.append(text)
        if den == 1:
            mag = _text(abs(c))
        else:
            g = gcd(c, den)
            mag = _text(abs(c) // g) if g == den else (
                f"{_text(abs(c) // g)}/{_text(den // g)}")
        mono = "*".join(mono)
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
