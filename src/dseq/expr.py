"""Elementary smooth expressions: trees over +, *, integer powers, sin, cos, exp.

Trees are tagged tuples: ("const", Fraction), ("var", i), ("add", a, b),
("mul", a, b), ("pow", a, n), ("sin", a), ("cos", a), ("exp", a).
Only rational subtrees are folded; no other rewriting happens, so the
printed form mirrors how an expression was built.
"""

import math
from fractions import Fraction

from .errors import DimensionMismatch
from .maps import CoordMap

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


def tree_eval(node, point):
    tag = node[0]
    if tag == "const":
        return float(node[1])
    if tag == "var":
        return point[node[1]]
    if tag == "add":
        return tree_eval(node[1], point) + tree_eval(node[2], point)
    if tag == "mul":
        return tree_eval(node[1], point) * tree_eval(node[2], point)
    if tag == "pow":
        return tree_eval(node[1], point) ** node[2]
    if tag == "sin":
        return math.sin(tree_eval(node[1], point))
    if tag == "cos":
        return math.cos(tree_eval(node[1], point))
    if tag == "exp":
        return math.exp(tree_eval(node[1], point))
    raise AssertionError(f"bad node {tag}")


def tree_deriv(node, j):
    """Partial derivative with respect to variable j."""
    tag = node[0]
    if tag == "const":
        return const(0)
    if tag == "var":
        return const(1 if node[1] == j else 0)
    if tag == "add":
        return add(tree_deriv(node[1], j), tree_deriv(node[2], j))
    if tag == "mul":
        a, b = node[1], node[2]
        return add(mul(tree_deriv(a, j), b), mul(a, tree_deriv(b, j)))
    if tag == "pow":
        a, n = node[1], node[2]
        return mul(mul(const(n), pow_(a, n - 1)), tree_deriv(a, j))
    if tag == "sin":
        return mul(cos(node[1]), tree_deriv(node[1], j))
    if tag == "cos":
        return mul(neg(sin(node[1])), tree_deriv(node[1], j))
    if tag == "exp":
        return mul(exp(node[1]), tree_deriv(node[1], j))
    raise AssertionError(f"bad node {tag}")


def tree_subst(node, replacements):
    """Replace each variable i by replacements[i] (a tree)."""
    tag = node[0]
    if tag == "const":
        return node
    if tag == "var":
        return replacements[node[1]]
    if tag == "add":
        return add(tree_subst(node[1], replacements),
                   tree_subst(node[2], replacements))
    if tag == "mul":
        return mul(tree_subst(node[1], replacements),
                   tree_subst(node[2], replacements))
    if tag == "pow":
        return pow_(tree_subst(node[1], replacements), node[2])
    return (tag, tree_subst(node[1], replacements))


def tree_shift(node, offset):
    tag = node[0]
    if tag == "const":
        return node
    if tag == "var":
        return ("var", node[1] + offset)
    if tag == "add":
        return ("add", tree_shift(node[1], offset), tree_shift(node[2], offset))
    if tag == "mul":
        return ("mul", tree_shift(node[1], offset), tree_shift(node[2], offset))
    if tag == "pow":
        return ("pow", tree_shift(node[1], offset), node[2])
    return (tag, tree_shift(node[1], offset))


def tree_max_var(node):
    tag = node[0]
    if tag == "const":
        return -1
    if tag == "var":
        return node[1]
    if tag == "pow":
        return tree_max_var(node[1])
    if tag in ("add", "mul"):
        return max(tree_max_var(node[1]), tree_max_var(node[2]))
    return tree_max_var(node[1])


class ElemMap(CoordMap):
    """Map between coordinate spaces with one expression tree per output.

    Equality is decided by sampling: both maps are evaluated at a fixed
    seeded cloud of points in [-1, 1]^dom and compared coordinatewise to a
    relative tolerance (absolute when the reference magnitude is below 1).
    Trees that agree on the cloud but differ elsewhere are declared equal;
    that false-positive risk is accepted by design for this base.
    """

    base = "elementary"
    __slots__ = ()

    @staticmethod
    def _check_component(t, dom):
        top = tree_max_var(t)
        if top >= dom:
            raise DimensionMismatch(
                f"component uses variable x{top}, domain is {dom}")

    @staticmethod
    def _variable(nvars, j):
        return var(j)

    @staticmethod
    def _zero(nvars):
        return const(0)

    _add = staticmethod(add)

    @staticmethod
    def _shift(t, offset, nvars):
        return tree_shift(t, offset)

    def then(self, other):
        self._require_composable(other)
        reps = list(self.components)
        return ElemMap(self.dom, other.cod,
                       [tree_subst(t, reps) for t in other.components])

    def differential(self):
        """Directional derivative on the doubled domain (point, direction)."""
        d = self.dom
        comps = []
        for t in self.components:
            total = const(0)
            for j in range(d):
                total = add(total, mul(tree_deriv(t, j), var(d + j)))
            comps.append(total)
        return ElemMap(2 * d, self.cod, comps)

    def eval(self, point):
        self._require_point(point)
        fp = [float(x) for x in point]
        return tuple(tree_eval(t, fp) for t in self.components)

    def sample_points(self):
        import random
        rng = random.Random(ELEM_EQ_SEED + self.dom)
        return [[rng.uniform(-1.0, 1.0) for _ in range(self.dom)]
                for _ in range(ELEM_EQ_SAMPLES)]

    def _eval_finite(self, point):
        """Values at point, or None when evaluation leaves float range.
        Nested exp chains overflow on parts of the sample box; such points
        carry no information for a sampled-equality verdict."""
        try:
            vals = self.eval(point)
        except OverflowError:
            return None
        if any(math.isinf(v) or math.isnan(v) for v in vals):
            return None
        return vals

    def equal_witness(self, other, tol=None):
        """(equal?, first failing sample point or None)."""
        self._require_same_signature(other, "comparison needs equal signatures")
        if tol is None:
            tol = ELEM_TOLERANCE
        for point in self.sample_points():
            ref = self._eval_finite(point)
            got = other._eval_finite(point)
            if ref is None and got is None:
                continue
            if ref is None or got is None:
                return False, point
            for a, b in zip(ref, got):
                if abs(a - b) > tol * max(1.0, abs(a)):
                    return False, point
        return True, None
