"""Truncated derivative towers and their calculus.

A tower of order N over domain dimension d holds maps f_0 .. f_N where f_n
takes 2^n blocks of d coordinates (block index bit 0 = innermost doubling)
and lands in the common codomain.  Order 0 is legal and inert.  Tangent and
shift each consume one order of truncation budget; binary operations
truncate to the smaller input order.  Tower operations are validated by
their terms: the term operation each runs first, on f_0, raises any
TagMismatch or DimensionMismatch before heavy work.  Only the constructor
checks a tower's own terms.

A tower keeps its tangent once built (see the list of kept state in `maps`).
"""

from dataclasses import dataclass

from .errors import (DimensionMismatch, InsufficientOrder, OrderMismatch,
                     TagMismatch)
from .maps import (canonical_map, coord_slice, keep, precompose, proj,
                   zero_map)


@dataclass(frozen=True)
class PreDSeq:
    """A truncated tower (f_0, ..., f_N); no axioms are assumed to hold."""

    dom: int
    cod: int
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise OrderMismatch("a tower has at least its order-0 term")
        for n, f in enumerate(self.terms):
            if f.dom != self.dom * (1 << n) or f.cod != self.cod:
                raise DimensionMismatch(
                    f"term {n} has signature {f.dom}->{f.cod}, "
                    f"expected {self.dom * (1 << n)}->{self.cod}")
            if f.base != self.terms[0].base:
                raise TagMismatch("all terms of a tower share one base")
        object.__setattr__(self, "_kept", {})

    @property
    def order(self):
        return len(self.terms) - 1

    @property
    def base(self):
        return self.terms[0].base

    def term(self, n):
        if not 0 <= n <= self.order:
            raise InsufficientOrder(
                f"term {n} requested from a tower of order {self.order}")
        return self.terms[n]

    def truncate(self, order):
        if order > self.order:
            raise InsufficientOrder(
                f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return PreDSeq(self.dom, self.cod, self.terms[:order + 1])

    def differential(self):
        """Shift: drop f_0, viewing f_{n+1} as the n-th term over the doubled
        domain.  Costs one order."""
        if self.order < 1:
            raise InsufficientOrder("shift needs order >= 1")
        return PreDSeq(2 * self.dom, self.cod, self.terms[1:])

    def tangent(self):
        """The tangent tower T f = <f o pi0, D f>: f precomposed with the
        projection pi0 (a, b) |-> a by the left scalar action, paired with
        its shift.  Costs one order.  Built once, then kept on the tower."""
        if self.order < 1:
            raise InsufficientOrder("tangent needs order >= 1")
        return keep(self, "tangent", lambda: self.truncate(self.order - 1)
                    .lmul(canonical_map("proj0", self.dom, self.base))
                    .pair(self.differential()))

    def lmul(self, h, *more):
        """Left scalar action: reparameterize by h through every doubling.
        With `more` maps of h's signature, the termwise sum of the actions
        of h and of each of them (`maps.precompose`)."""
        terms = tuple(precompose(h, n, f, *more)
                      for n, f in enumerate(self.terms))
        return PreDSeq(h.dom, self.cod, terms)

    def rmul(self, k):
        """Right scalar action: post-compose every term with k."""
        return PreDSeq(self.dom, k.cod, tuple(f.then(k) for f in self.terms))

    def compose(self, g):
        """Tower composition: n-th term runs the n-fold tangent of self at
        level 0, then g_n.  Truncates to the smaller order."""
        terms = []
        cur = self
        for n, g_n in enumerate(g.terms[:self.order + 1]):
            if n:
                cur = cur.tangent()
            terms.append(cur.terms[0].then(g_n))
        return PreDSeq(self.dom, g.cod, tuple(terms))

    def pair(self, g):
        """Termwise pairing into the product codomain; truncates to min order."""
        terms = tuple(f.pair(h) for f, h in zip(self.terms, g.terms))
        return PreDSeq(self.dom, self.cod + g.cod, terms)

    def __add__(self, g):
        if not isinstance(g, PreDSeq):
            return NotImplemented
        terms = tuple(f + h for f, h in zip(self.terms, g.terms))
        return PreDSeq(self.dom, self.cod, terms)


def seq_identity(dim, order, base="poly"):
    """Identity tower: term n selects the all-ones block (the innermost
    direction of every doubling)."""
    terms = []
    for n in range(order + 1):
        total = dim << n
        terms.append(coord_slice(total, total - dim, dim, base))
    return PreDSeq(dim, dim, tuple(terms))


def seq_zero(dom, cod, order, base="poly"):
    terms = tuple(zero_map(dom << n, cod, base) for n in range(order + 1))
    return PreDSeq(dom, cod, terms)


def seq_proj(a, b, j, order, base="poly"):
    return seq_identity(a + b, order, base).rmul(proj(a, b, j, base))


def seq_product(factors):
    """Product tower of independent factors on stacked domains (min order)."""
    assert factors
    doms = [f.dom for f in factors]
    total = sum(doms)
    base = factors[0].base
    out = None
    start = 0
    for f, d in zip(factors, doms):
        slicer = coord_slice(total, start, d, base)
        piece = f.lmul(slicer)
        out = piece if out is None else out.pair(piece)
        start += d
    return out
