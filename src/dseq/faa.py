"""Classical higher-derivative oracle, independent of the tower machinery.

Univariate n-th derivatives of a composite are computed with the Faa di
Bruno formula over integer partitions, and cross-checked against two other
routes: evaluating the n-fold joint derivative on the directional pattern
(x, v, v, 0, v, 0, 0, 0, ...), and expanding f(x + t v) in a fresh
coordinate t and reading off n! times the t^n coefficient.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, TagMismatch
from .maps import compose
from .poly import Poly, PolyMap
from .sequences import PreDSeq

SAMPLE_POINTS = (Fraction(-2), Fraction(-1), Fraction(0),
                 Fraction(1, 2), Fraction(3))


@dataclass(frozen=True)
class Partition:
    """Partition of n stored as part multiplicities m[j-1] = #parts of size j."""

    n: int
    multiplicities: tuple

    def __post_init__(self):
        assert len(self.multiplicities) == self.n
        assert sum((j + 1) * m for j, m in enumerate(self.multiplicities)) == self.n

    @property
    def block_count(self):
        return sum(self.multiplicities)

    @property
    def coefficient(self):
        """n! / prod_j (m_j! * (j!)^m_j), the number of set partitions of an
        n-set with this shape."""
        denom = 1
        for j, m in enumerate(self.multiplicities, start=1):
            denom *= math.factorial(m) * math.factorial(j) ** m
        coeff, rem = divmod(math.factorial(self.n), denom)
        assert rem == 0
        return coeff


def _part_lists(n, largest):
    if n == 0:
        yield []
        return
    for p in range(min(n, largest), 0, -1):
        for rest in _part_lists(n - p, p):
            yield [p] + rest


def partitions(n):
    """All partitions of n, largest-first part lists turned into shapes."""
    for plist in _part_lists(n, n):
        mult = [0] * n
        for p in plist:
            mult[p - 1] += 1
        yield Partition(n, tuple(mult))


def bell_number(n):
    """Total number of set partitions: the sum of the shape coefficients."""
    return sum(p.coefficient for p in partitions(n))


def nth_symbolic_derivative(f, n):
    """n-fold joint derivative; domain dimension grows by a factor of 2^n."""
    for _ in range(n):
        f = f.differential()
    return f


def classical_derivative(p, k):
    """k-th ordinary derivative of a univariate polynomial."""
    assert p.nvars == 1
    for _ in range(k):
        p = p.partial(0)
    return p


def _univariate_component(f):
    if not isinstance(f, PolyMap):
        raise TagMismatch("the classical oracle works on polynomial maps")
    if f.dom != 1 or f.cod != 1:
        raise DimensionMismatch("univariate oracle needs a 1 -> 1 map")
    return f.components[0]


def faa_univariate(inner, outer, n):
    """n-th derivative of outer(inner(x)) by the partition formula."""
    p = _univariate_component(inner)
    q = _univariate_component(outer)
    if n == 0:
        return inner.then(outer)
    total = Poly.zero(1)
    inner_derivs = [classical_derivative(p, j) for j in range(n + 1)]
    for shape in partitions(n):
        outer_at_inner = classical_derivative(q, shape.block_count).subst([p], 1)
        term = outer_at_inner.scale(shape.coefficient)
        for j, m in enumerate(shape.multiplicities, start=1):
            for _ in range(m):
                term = term * inner_derivs[j]
        total = total + term
    return PolyMap(1, 1, [total])


def _directional_blocks(order, point, direction, zero):
    """The 2^order blocks of the directional pattern: the point in block 0,
    the direction in each block whose index has a single doubling bit set,
    `zero` elsewhere."""
    out = []
    for b in range(1 << order):
        out.extend(point if b == 0 else direction if b & (b - 1) == 0
                   else zero)
    return out


def directional_eval(seq, n, point, direction):
    """Evaluate tower term n on the directional pattern: the n-th derivative
    of the order-0 map at `point` along `direction`."""
    if not isinstance(seq, PreDSeq):
        raise TagMismatch("directional evaluation works on towers")
    if len(point) != seq.dom or len(direction) != seq.dom:
        raise DimensionMismatch("point and direction must match the domain")
    return seq.term(n).eval(
        _directional_blocks(n, point, direction, [0] * seq.dom))


def directional_oracle(f, n, point, direction):
    """Same derivative via a fresh coordinate: substitute x := point + t *
    direction, expand in t, and return n! times the t^n coefficient."""
    if not isinstance(f, PolyMap):
        raise TagMismatch("the classical oracle works on polynomial maps")
    if len(point) != f.dom or len(direction) != f.dom:
        raise DimensionMismatch("point and direction must match the domain")
    t = Poly.variable(1, 0)
    line = PolyMap(1, f.dom, [
        Poly.constant(1, point[j]) + t.scale(direction[j])
        for j in range(f.dom)])
    restricted = line.then(f)
    scale = math.factorial(n)
    out = []
    for comp in restricted.components:
        coeff = Fraction(0)
        for exps, c in comp.terms:
            if exps[0] == n:
                coeff = c
        out.append(coeff * scale)
    return tuple(out)


def unit_speed_pattern(n):
    """The pattern (x, 1, 1, 0, 1, 0, 0, 0, ...) as a symbolic map, turning
    the n-fold joint derivative of a univariate map into its classical n-th
    derivative."""
    return PolyMap(1, 1 << n, _directional_blocks(
        n, [Poly.variable(1, 0)], [Poly.constant(1, 1)], [Poly.zero(1)]))


def pattern_derivative(f, n):
    """Classical n-th derivative of a univariate map read off the n-fold
    joint derivative along the unit-speed pattern."""
    return unit_speed_pattern(n).then(nth_symbolic_derivative(f, n))


def chain_equivalence_check(f, g, n, order=None, tol=None):
    """Three-route agreement for the composite f-then-g.

    chain.tower-vs-iterated: term n of the tower composite equals the n-fold
    joint derivative of the base composite.
    chain.faa-vs-pattern (univariate): the partition formula equals the
    pattern-evaluated joint derivative, as maps.
    chain.faa-vs-oracle (univariate): both agree with the fresh-coordinate
    expansion at fixed rational sample points.
    """
    from .comonad import omega
    from .reports import LawReport, bool_entry, map_entry

    if order is None:
        order = n
    report = LawReport("chain")
    composite = compose(f, g)
    tower_term = omega(f, order).compose(omega(g, order)).term(n)
    report.add(map_entry("chain.tower-vs-iterated", n, 0, n, tower_term,
                         nth_symbolic_derivative(composite, n), tol))
    if f.dom == 1 and f.cod == 1 and g.dom == 1 and g.cod == 1 \
            and isinstance(f, PolyMap):
        faa_map = faa_univariate(f, g, n)
        report.add(map_entry("chain.faa-vs-pattern", n, 0, n, faa_map,
                             pattern_derivative(composite, n), tol))
        for i, x in enumerate(SAMPLE_POINTS):
            oracle = directional_oracle(composite, n, [x], [Fraction(1)])
            report.add(bool_entry("chain.faa-vs-oracle", n, i,
                                  faa_map.eval([x]) == oracle, n))
    return report.sort()
