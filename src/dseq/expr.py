"""Elementary smooth expressions: trees over +, *, integer powers, sin, cos, exp.

Trees are tagged tuples built by the smart constructors below: ("const",
Fraction), ("var", i), ("add", a, b), ("mul", a, b), ("pow", a, n), ("sin", a),
("cos", a), ("exp", a).  Only rational subtrees are folded, so the printed
form mirrors how an expression was built.

Terms of a composite tower repeat their subexpressions heavily, so no
operation walks a tree: `_tape` hash-conses the trees under a list of roots
into a straight-line program, one instruction per structurally distinct
subtree, and `_run` evaluates it in an algebra, a table of add/mul/pow/sin/
cos/exp plus a leaf function.  An `ElemMap` tapes its components once, at
construction, and keeps the tape.  `eval` runs it over floats, `then` and
`_shifted` (for `maps.pfunctor_apply`) over the smart constructors
(`ElemMap._ops`, the component algebra the parser also builds with),
`differential` over (tree, derivative) pairs and the printer over (text,
precedence) pairs.
"""

import functools
import math
import operator
from fractions import Fraction

from .errors import DimensionMismatch, EngineError
from .maps import CoordMap, _check_constant_power

ELEM_EQ_SEED = 0xD5E0          # seed for the sampled-equality point cloud
ELEM_EQ_SAMPLES = 20
ELEM_TOLERANCE = 1e-9


def const(value):
    return ("const", Fraction(value))

def var(i):
    assert i >= 0
    return ("var", i)

def add(a, b):
    if a[0] == "const" and b[0] == "const":
        return const(a[1] + b[1])
    if a[0] == "const" and a[1] == 0:
        return b
    if b[0] == "const" and b[1] == 0:
        return a
    return ("add", a, b)

def mul(a, b):
    if a[0] == "const" and b[0] == "const":
        return const(a[1] * b[1])
    if a[0] == "const":
        if a[1] == 0:
            return const(0)
        if a[1] == 1:
            return b
    if b[0] == "const":
        if b[1] == 0:
            return const(0)
        if b[1] == 1:
            return a
    return ("mul", a, b)

def pow_(a, n):
    assert n >= 0
    if n == 0:
        return const(1)
    if n == 1:
        return a
    if a[0] == "const":
        _check_constant_power(a[1], n)
        return const(a[1] ** n)
    return ("pow", a, n)

def sin(a):
    return ("sin", a)

def cos(a):
    return ("cos", a)

def exp(a):
    return ("exp", a)

def neg(a):
    return mul(const(-1), a)


def _tape(roots):
    """Hash-cons the trees under `roots` into (code, root indices).

    An instruction is a node whose subtrees are replaced by the indices of
    their own, earlier, instructions; structurally equal subtrees share one
    instruction.  Iterative, so tree depth is not bounded by the stack.
    """
    code, index, seen = [], {}, {}     # seen: id(node) -> instruction index
    stack = list(reversed(roots))
    while stack:
        node = stack[-1]
        if id(node) in seen:
            stack.pop()
            continue
        todo = [p for p in node if type(p) is tuple and id(p) not in seen]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        ins = tuple(seen[id(p)] if type(p) is tuple else p for p in node)
        k = index.setdefault(ins, len(code))
        if k == len(code):
            code.append(ins)
        seen[id(node)] = k
    return code, [seen[id(r)] for r in roots]


def _run(tape, ops, leaf):
    """Values of the tape's roots in the algebra `ops`; `leaf` maps a
    const or var node to a value."""
    code, roots = tape
    vals = []
    push = vals.append
    for ins in code:
        tag = ins[0]
        if tag == "add" or tag == "mul":
            push(ops[tag](vals[ins[1]], vals[ins[2]]))
        elif tag == "pow":
            push(ops["pow"](vals[ins[1]], ins[2]))
        elif tag == "const" or tag == "var":
            push(leaf(ins))
        else:
            push(ops[tag](vals[ins[1]]))
    return [vals[r] for r in roots]


_FLOATS = {"add": operator.add, "mul": operator.mul, "pow": operator.pow,
           "sin": math.sin, "cos": math.cos, "exp": math.exp}

# (tree, partial derivative) pairs: forward mode along one direction.
_PAIRS = {
    "add": lambda p, q: (add(p[0], q[0]), add(p[1], q[1])),
    "mul": lambda p, q: (mul(p[0], q[0]),
                         add(mul(p[1], q[0]), mul(p[0], q[1]))),
    "pow": lambda p, n: (pow_(p[0], n),
                         mul(mul(const(n), pow_(p[0], n - 1)), p[1])),
    "sin": lambda p: (sin(p[0]), mul(cos(p[0]), p[1])),
    "cos": lambda p: (cos(p[0]), mul(neg(sin(p[0])), p[1])),
    "exp": lambda p: (exp(p[0]), mul(exp(p[0]), p[1])),
}


def _float_values(tape, point):
    return _run(tape, _FLOATS,
                lambda ins: float(point[ins[1]] if ins[0] == "var" else ins[1]))


def _partials(tape, j):
    """Partial derivatives of the tape's roots with respect to x_j."""
    return [d for _, d in _run(tape, _PAIRS,
                               lambda ins: (ins, const(int(ins == ("var", j)))))]


def _substitute(tape, rep):
    """The tape's roots with each variable x_i replaced by the tree rep(i)."""
    return _run(tape, ElemMap._ops,
                lambda ins: rep(ins[1]) if ins[0] == "var" else ins)


class ElemMap(CoordMap):
    """Map between coordinate spaces with one expression tree per output.

    Equality is decided by sampling: both maps are evaluated at a fixed
    seeded cloud of points in [-1, 1]^dom and compared coordinatewise to a
    relative tolerance (absolute when the reference magnitude is below 1).
    Trees that agree on the cloud but differ elsewhere are declared equal;
    that false-positive risk is accepted by design for this base.  A
    comparison with no sample point where both sides are finite fails.
    """

    base = "elementary"
    __slots__ = ("tape",)     # the components, taped once at construction

    _ops = {"add": add, "mul": mul, "pow": pow_, "sin": sin, "cos": cos,
            "exp": exp, "sum": lambda ts: functools.reduce(add, ts)}

    def _check_components(self):
        self.tape = _tape(self.components)
        top = max((ins[1] for ins in self.tape[0] if ins[0] == "var"),
                  default=-1)
        if top >= self.dom:
            raise DimensionMismatch(
                f"component uses variable x{top}, domain is {self.dom}")

    @staticmethod
    def _constant(nvars, value):
        return const(value)

    @staticmethod
    def _variable(nvars, j):
        return var(j)

    def _shifted(self, offset, nvars):
        return _substitute(self.tape, lambda i: var(i + offset))

    def then(self, other):
        self._require_composable(other)
        try:
            comps = _substitute(other.tape, self.components.__getitem__)
        except OverflowError as exc:    # a constant power over the limit
            raise EngineError(str(exc)) from None
        return ElemMap(self.dom, other.cod, comps)

    def differential(self):
        """Directional derivative on the doubled domain (point, direction)."""
        d = self.dom
        comps = [const(0)] * self.cod
        for j in range(d):
            comps = [add(total, mul(dt, var(d + j)))
                     for total, dt in zip(comps, _partials(self.tape, j))]
        return ElemMap(2 * d, self.cod, comps)

    def eval(self, point):
        self._require_point(point)
        return tuple(_float_values(self.tape, point))

    def sample_points(self):
        import random
        rng = random.Random(ELEM_EQ_SEED + self.dom)
        return [[rng.uniform(-1.0, 1.0) for _ in range(self.dom)]
                for _ in range(ELEM_EQ_SAMPLES)]

    @staticmethod
    def _eval_finite(tape, point):
        """Values at point, or None where evaluation leaves float range or
        a function's domain (nested exp chains overflow on parts of the
        sample box): such points carry no information."""
        try:
            vals = _float_values(tape, point)
        except (OverflowError, ValueError):
            return None
        if not all(map(math.isfinite, vals)):
            return None
        return vals

    def equal_witness(self, other, tol=None):
        """(equal?, first failing sample point or None)."""
        self._require_same_signature(other, "comparison needs equal signatures")
        if tol is None:
            tol = ELEM_TOLERANCE
        points = self.sample_points()
        informative = False
        for point in points:
            ref = self._eval_finite(self.tape, point)
            got = self._eval_finite(other.tape, point)
            if ref is None and got is None:
                continue
            if ref is None or got is None or any(
                    abs(a - b) > tol * max(1.0, abs(a))
                    for a, b in zip(ref, got)):
                return False, point
            informative = True
        return (True, None) if informative else (False, points[0])
