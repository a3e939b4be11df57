"""Sparse multivariate polynomials over exact rationals, and polynomial maps.

A polynomial is stored as a tuple of (exponents, coefficient) pairs where
`exponents` is a dense tuple of naturals, one per variable.  Terms are kept
in descending graded-lexicographic order with no zero coefficients, so two
polynomials are mathematically equal iff their term tuples compare equal.
"""

import operator
from fractions import Fraction
from math import comb

from .errors import DimensionMismatch
from .maps import CoordMap, _check_constant_power

ZERO = Fraction(0)
ONE = Fraction(1)

# Term products one parsed product or power may cost before it is refused,
# as an OverflowError that the parser reports as a ParseError.  (x0+1)^499
# is the largest power of a binomial that fits; `derive --order 1` on it
# takes about 1 s on a 2-vCPU Xeon, and on (x0+1)^3000 more than 8 s.
_PARSE_WORK_LIMIT = 250_000


def _budgeted(work, what):
    if work > _PARSE_WORK_LIMIT:
        raise OverflowError(f"{what} would cost about {work} term products, "
                            f"over the budget of {_PARSE_WORK_LIMIT}")


def _parsed_mul(p, q):
    _budgeted(len(p.terms) * len(q.terms), "product")
    return p * q


def _parsed_pow(p, n):
    """p^n, bounded by the square of the C(n+t-1, t-1) monomials of degree
    n in t terms that the result can have; the power of a single term has
    the n-th power of its coefficient, bounded in digits."""
    if len(p.terms) == 1:
        _check_constant_power(p.terms[0][1], n)
    t = max(len(p.terms), 1)
    _budgeted(comb(n + t - 1, t - 1) ** 2, "power")
    return p ** n


def _canonical(nvars, items):
    """Collect (exponents, coefficient) pairs into canonical term order."""
    acc = {}
    for exps, coeff in items:
        if len(exps) != nvars:
            raise DimensionMismatch(
                f"term has {len(exps)} exponents, expected {nvars}")
        cur = acc.get(exps)
        coeff = cur + coeff if cur is not None else Fraction(coeff)
        if coeff:
            acc[exps] = coeff
        elif cur is not None:
            del acc[exps]
    ordered = sorted(acc.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    return tuple(ordered)


class Poly:
    """Polynomial in a fixed number of variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, items=()):
        self.nvars = nvars
        self.terms = items if isinstance(items, tuple) and all(
            isinstance(c, Fraction) for _, c in items
        ) and _is_sorted(items) else _canonical(nvars, items)

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, ())

    @classmethod
    def constant(cls, nvars, value):
        value = Fraction(value)
        if not value:
            return cls(nvars, ())
        return cls(nvars, (((0,) * nvars, value),))

    @classmethod
    def variable(cls, nvars, index):
        assert 0 <= index < nvars
        exps = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(nvars, ((exps, ONE),))

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return sum(self.terms[0][0])

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.terms))

    def __repr__(self):
        from .parser import format_poly
        return f"Poly({self.nvars}, {format_poly(self)!r})"

    def __add__(self, other):
        assert self.nvars == other.nvars
        return Poly(self.nvars, list(self.terms) + list(other.terms))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, tuple((e, k * c) for e, k in self.terms))

    def __mul__(self, other):
        assert self.nvars == other.nvars
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                prev = acc.get(e)
                acc[e] = c1 * c2 if prev is None else prev + c1 * c2
        return Poly(self.nvars, list(acc.items()))

    def __pow__(self, n):
        assert n >= 0
        result = Poly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def partial(self, j):
        """Partial derivative with respect to variable j."""
        items = []
        for exps, coeff in self.terms:
            e = exps[j]
            if e:
                lowered = exps[:j] + (e - 1,) + exps[j + 1:]
                items.append((lowered, coeff * e))
        return Poly(self.nvars, items)

    def shift(self, offset, new_nvars):
        """Reinterpret in `new_nvars` variables with indices moved up by offset."""
        assert offset + self.nvars <= new_nvars
        pre = (0,) * offset
        post = (0,) * (new_nvars - offset - self.nvars)
        return Poly(new_nvars,
                    tuple((pre + exps + post, c) for exps, c in self.terms))

    def eval(self, point):
        """Evaluate at a point; exact when the point is rational."""
        assert len(point) == self.nvars
        total = ZERO
        for exps, coeff in self.terms:
            val = coeff
            for x, e in zip(point, exps):
                if e:
                    val = val * x ** e
            total = total + val
        return total

    def subst(self, maps, nvars_out):
        """Substitute variable j := maps[j]; all maps live in nvars_out variables."""
        assert len(maps) == self.nvars
        # Fast path: every substitute is a single variable or zero, so terms
        # just get their exponents rerouted.
        routes = []
        for q in maps:
            if q.is_zero():
                routes.append(-1)
            elif (len(q.terms) == 1 and q.terms[0][1] == ONE
                  and sum(q.terms[0][0]) == 1):
                routes.append(q.terms[0][0].index(1))
            else:
                routes = None
                break
        if routes is not None:
            items = []
            for exps, coeff in self.terms:
                out = [0] * nvars_out
                dead = False
                for j, e in enumerate(exps):
                    if not e:
                        continue
                    r = routes[j]
                    if r < 0:
                        dead = True
                        break
                    out[r] += e
                if not dead:
                    items.append((tuple(out), coeff))
            return Poly(nvars_out, items)

        powers = {}

        def power(j, e):
            got = powers.get((j, e))
            if got is None:
                got = maps[j] ** e
                powers[(j, e)] = got
            return got

        acc = {}
        one = Poly.constant(nvars_out, 1)
        for exps, coeff in self.terms:
            prod = one
            for j, e in enumerate(exps):
                if e:
                    prod = prod * power(j, e)
            for e2, c2 in prod.terms:
                prev = acc.get(e2)
                add = coeff * c2
                acc[e2] = add if prev is None else prev + add
        return Poly(nvars_out, list(acc.items()))


def _is_sorted(items):
    keys = [(sum(e), e) for e, _ in items]
    return all(keys[i] > keys[i + 1] for i in range(len(keys) - 1))


class PolyMap(CoordMap):
    """Map between coordinate spaces with one polynomial per output coordinate."""

    base = "poly"
    __slots__ = ()

    def _check_components(self):
        for p in self.components:
            if p.nvars != self.dom:
                raise DimensionMismatch(
                    f"component in {p.nvars} variables, domain is {self.dom}")

    _constant = staticmethod(Poly.constant)
    _variable = staticmethod(Poly.variable)
    _ops = {"add": operator.add, "mul": _parsed_mul, "pow": _parsed_pow,
            "sum": lambda ps: Poly(ps[0].nvars,
                                   [t for p in ps for t in p.terms])}

    def _shifted(self, offset, nvars):
        return [p.shift(offset, nvars) for p in self.components]

    def then(self, other):
        """Diagrammatic composite: self first, then other."""
        self._require_composable(other)
        comps = [p.subst(list(self.components), self.dom)
                 for p in other.components]
        return PolyMap(self.dom, other.cod, comps)

    def __neg__(self):
        return PolyMap(self.dom, self.cod, [-p for p in self.components])

    def __sub__(self, other):
        return self + (-other)

    def differential(self):
        """Joint derivative as a map on the doubled domain.

        Inputs are a base point followed by a direction; the output is the
        directional derivative of each component, linear in the direction.
        """
        d = self.dom
        comps = []
        for p in self.components:
            items = []
            for exps, coeff in p.terms:
                for j, e in enumerate(exps):
                    if e:
                        lowered = exps[:j] + (e - 1,) + exps[j + 1:]
                        dirpart = tuple(1 if i == j else 0 for i in range(d))
                        items.append((lowered + dirpart, coeff * e))
            comps.append(Poly(2 * d, items))
        return PolyMap(2 * d, self.cod, comps)

    def eval(self, point):
        self._require_point(point)
        return tuple(p.eval(point) for p in self.components)

    def equal_witness(self, other, tol=None):
        """(equal?, difference map or None): exact equality of canonical
        forms."""
        self._require_same_signature(other, "comparison needs equal signatures")
        if self.components == other.components:
            return True, None
        return False, self - other
