"""Truncated derivative towers and their calculus.

A tower of order N over domain dimension d holds maps f_0 .. f_N where f_n
takes 2^n blocks of d coordinates (block index bit 0 = innermost doubling)
and lands in the common codomain.  Order 0 is legal and inert.  Tangent and
shift each consume one order of truncation budget; binary operations
truncate to the smaller input order.
"""

from dataclasses import dataclass

from .errors import DimensionMismatch, InsufficientOrder, TagMismatch
from .maps import compose, coord_slice, pfunctor_apply, proj, zero_map


@dataclass(frozen=True)
class PreDSeq:
    """A truncated tower (f_0, ..., f_N); no axioms are assumed to hold."""

    dom: int
    cod: int
    terms: tuple

    def __post_init__(self):
        assert self.terms, "a tower has at least its order-0 term"
        for n, f in enumerate(self.terms):
            if f.dom != self.dom * (1 << n) or f.cod != self.cod:
                raise DimensionMismatch(
                    f"term {n} has signature {f.dom}->{f.cod}, "
                    f"expected {self.dom * (1 << n)}->{self.cod}")
            if f.base != self.terms[0].base:
                raise TagMismatch("all terms of a tower share one base")

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
        """Tangent tower: n-th term pairs f_n at the even blocks with f_{n+1}.
        Costs one order."""
        if self.order < 1:
            raise InsufficientOrder("tangent needs order >= 1")
        pi0 = proj(self.dom, self.dom, 0, self.base)
        terms = []
        for n in range(self.order):
            left = compose(pfunctor_apply(pi0, n), self.terms[n])
            terms.append(left.pair(self.terms[n + 1]))
        return PreDSeq(2 * self.dom, 2 * self.cod, tuple(terms))

    def lmul(self, h):
        """Left scalar action: reparameterize by h through every doubling."""
        if h.base != self.base:
            raise TagMismatch("scalar action needs matching base")
        if h.cod != self.dom:
            raise DimensionMismatch(
                f"left action needs cod {h.cod} == tower domain {self.dom}")
        terms = tuple(compose(pfunctor_apply(h, n), f)
                      for n, f in enumerate(self.terms))
        return PreDSeq(h.dom, self.cod, terms)

    def rmul(self, k):
        """Right scalar action: post-compose every term with k."""
        if k.base != self.base:
            raise TagMismatch("scalar action needs matching base")
        if k.dom != self.cod:
            raise DimensionMismatch(
                f"right action needs dom {k.dom} == tower codomain {self.cod}")
        return PreDSeq(self.dom, k.cod, tuple(compose(f, k) for f in self.terms))

    def compose(self, g):
        """Tower composition: n-th term runs the n-fold tangent of self at
        level 0, then g_n.  Truncates to the smaller order."""
        if g.base != self.base:
            raise TagMismatch("composition needs matching base")
        if self.cod != g.dom:
            raise DimensionMismatch(
                f"composition needs cod {self.cod} == dom {g.dom}")
        order = min(self.order, g.order)
        terms = []
        cur = self
        for n in range(order + 1):
            terms.append(compose(cur.terms[0], g.terms[n]))
            if n < order:
                cur = cur.tangent()
        return PreDSeq(self.dom, g.cod, tuple(terms))

    def pair(self, g):
        """Termwise pairing into the product codomain; truncates to min order."""
        if g.base != self.base:
            raise TagMismatch("pairing needs matching base")
        if self.dom != g.dom:
            raise DimensionMismatch("pairing needs equal domains")
        order = min(self.order, g.order)
        terms = tuple(self.terms[n].pair(g.terms[n]) for n in range(order + 1))
        return PreDSeq(self.dom, self.cod + g.cod, terms)

    def __add__(self, g):
        if not isinstance(g, PreDSeq):
            return NotImplemented
        if g.base != self.base:
            raise TagMismatch("sum needs matching base")
        if self.dom != g.dom or self.cod != g.cod:
            raise DimensionMismatch("sum needs equal signatures")
        order = min(self.order, g.order)
        terms = tuple(self.terms[n] + g.terms[n] for n in range(order + 1))
        return PreDSeq(self.dom, self.cod, terms)

    def eq(self, g, tol=None):
        """True iff orders match and every term compares equal."""
        if g.base != self.base:
            raise TagMismatch("comparison needs matching base")
        if self.dom != g.dom or self.cod != g.cod:
            raise DimensionMismatch("comparison needs equal signatures")
        if self.order != g.order:
            return False
        return all(a.equal(b, tol) for a, b in zip(self.terms, g.terms))


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


def seq_terminal(dim, order, base="poly"):
    return seq_zero(dim, 0, order, base)


def seq_product(factors):
    """Product tower of independent factors on stacked domains."""
    assert factors
    doms = [f.dom for f in factors]
    total = sum(doms)
    base = factors[0].base
    order = min(g.order for g in factors)
    out = None
    start = 0
    for f, d in zip(factors, doms):
        slicer = coord_slice(total, start, d, base)
        piece = f.truncate(order).lmul(slicer)
        out = piece if out is None else out.pair(piece)
        start += d
    return out
