"""The shared map interface and base-agnostic morphism operations.

Every space is a finite coordinate space identified by its dimension.  A
map carries one component per output coordinate; `CoordMap` owns the
structure every base shares (signatures, projections, pairing, sums and
tiling), and each base subclass supplies its algebra.  The doubling functor
sends a map to block-diagonal copies of itself; its n-th power acts on 2^n
stacked blocks, indexed so that bit 0 of a block index is the innermost
doubling.
"""

from functools import lru_cache

from .errors import DimensionMismatch, TagMismatch

_BASES = {}


class CoordMap:
    """Map between coordinate spaces with one component per output coordinate.

    A base subclass sets its `base` tag, which registers it for
    `map_class`, and supplies the component algebra: `_check_component`,
    `_variable`, `_zero`, `_add` and `_shift`, plus `then`, `differential`,
    `eval` and `equal_witness`.  Composition is written diagrammatically:
    f.then(g) runs f first.
    """

    base = None
    __slots__ = ("dom", "cod", "components")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _BASES[cls.base] = cls

    def __init__(self, dom, cod, components):
        components = tuple(components)
        if len(components) != cod:
            raise DimensionMismatch(
                f"{len(components)} components for codomain {cod}")
        for c in components:
            self._check_component(c, dom)
        self.dom = dom
        self.cod = cod
        self.components = components

    @classmethod
    def identity(cls, dim):
        return cls.coord_slice(dim, 0, dim)

    @classmethod
    def zero_map(cls, dom, cod):
        return cls(dom, cod, [cls._zero(dom)] * cod)

    @classmethod
    def coord_slice(cls, total, start, size):
        """Projection keeping coordinates [start, start+size)."""
        assert 0 <= start and start + size <= total
        return cls(total, size,
                   [cls._variable(total, start + j) for j in range(size)])

    @classmethod
    def proj(cls, a, b, j):
        """Projection A x B -> A (j=0) or A x B -> B (j=1)."""
        assert j in (0, 1)
        return cls.coord_slice(a + b, 0 if j == 0 else a, a if j == 0 else b)

    def _require_same_kind(self, other):
        if not isinstance(other, type(self)):
            raise TagMismatch("cannot mix polynomial and elementary maps")

    def _require_composable(self, other):
        self._require_same_kind(other)
        if self.cod != other.dom:
            raise DimensionMismatch(
                f"composite needs cod {self.cod} == dom {other.dom}")

    def _require_same_signature(self, other, message):
        self._require_same_kind(other)
        if self.dom != other.dom or self.cod != other.cod:
            raise DimensionMismatch(message)

    def _require_point(self, point):
        if len(point) != self.dom:
            raise DimensionMismatch(
                f"point of length {len(point)} for domain {self.dom}")

    def pair(self, other):
        """Pairing into the product of the codomains."""
        self._require_same_kind(other)
        if self.dom != other.dom:
            raise DimensionMismatch("pairing needs equal domains")
        return type(self)(self.dom, self.cod + other.cod,
                          self.components + other.components)

    def __add__(self, other):
        self._require_same_signature(
            other, "sum needs equal domains and codomains")
        add = self._add
        return type(self)(self.dom, self.cod,
                          [add(a, b) for a, b in zip(self.components,
                                                     other.components)])

    def tile(self, copies):
        """Block-diagonal repetition acting on `copies` stacked domains."""
        dom, cod = self.dom * copies, self.cod * copies
        shift = self._shift
        comps = []
        for c in range(copies):
            off = c * self.dom
            comps.extend(shift(t, off, dom) for t in self.components)
        return type(self)(dom, cod, comps)

    def equal(self, other, tol=None):
        return self.equal_witness(other, tol)[0]

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.dom == other.dom
                and self.cod == other.cod and self.components == other.components)

    def __hash__(self):
        return hash((self.dom, self.cod, self.components))

    def __repr__(self):
        from .parser import format_map
        body = ", ".join(format_map(self))
        return f"{type(self).__name__}({self.dom}->{self.cod}: [{body}])"


def map_class(base):
    try:
        return _BASES[base]
    except KeyError:
        raise TagMismatch(f"unknown base tag {base!r}") from None


def identity(dim, base="poly"):
    return map_class(base).identity(dim)


def zero_map(dom, cod, base="poly"):
    return map_class(base).zero_map(dom, cod)


def proj(a, b, j, base="poly"):
    return map_class(base).proj(a, b, j)


def coord_slice(total, start, size, base="poly"):
    return map_class(base).coord_slice(total, start, size)


def compose(f, g):
    """Diagrammatic composite: f first, then g."""
    return f.then(g)


def tangent_map(f):
    """Pair of (f at the base point, derivative of f in the direction)."""
    d = f.dom
    return compose(proj(d, d, 0, f.base), f).pair(f.differential())


def pfunctor_apply(h, k):
    """k-fold doubling: 2^k block-diagonal copies of h."""
    assert k >= 0
    return h.tile(1 << k)


@lru_cache(maxsize=None)
def canonical_map(kind, dim, base="poly"):
    """Structural block maps used by the axiom checkers, built at block size dim.

    zpair:    X -> X^2          x |-> (x, 0)
    sumv:     X^3 -> X^2        (a, b, c) |-> (a, b + c)
    sumproj0: X^3 -> X^2        (a, b, c) |-> (a, b)
    sumproj1: X^3 -> X^2        (a, b, c) |-> (a, c)
    lift:     X^2 -> X^4        (a, b) |-> (a, 0, 0, b)
    flip:     X^4 -> X^4        (a, b, c, d) |-> (a, c, b, d)
    """
    cls = map_class(base)
    d = dim
    if kind == "zpair":
        return cls.identity(d).pair(cls.zero_map(d, d))
    if kind == "sumv":
        second = cls.coord_slice(3 * d, d, d) + cls.coord_slice(3 * d, 2 * d, d)
        return cls.coord_slice(3 * d, 0, d).pair(second)
    if kind == "sumproj0":
        return cls.coord_slice(3 * d, 0, 2 * d)
    if kind == "sumproj1":
        return cls.coord_slice(3 * d, 0, d).pair(cls.coord_slice(3 * d, 2 * d, d))
    if kind == "lift":
        top = cls.coord_slice(2 * d, 0, d).pair(cls.zero_map(2 * d, d))
        bottom = cls.zero_map(2 * d, d).pair(cls.coord_slice(2 * d, d, d))
        return top.pair(bottom)
    if kind == "flip":
        blocks = [cls.coord_slice(4 * d, i * d, d) for i in (0, 2, 1, 3)]
        out = blocks[0]
        for b in blocks[1:]:
            out = out.pair(b)
        return out
    raise ValueError(f"unknown canonical map kind {kind!r}")


def compare_maps(f, g, tol=None):
    """(equal?, witness): a difference map for polynomials, a failing sample
    point for elementary maps, None when equal."""
    return f.equal_witness(g, tol)
