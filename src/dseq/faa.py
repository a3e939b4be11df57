"""Faa di Bruno sequences: higher derivatives composed over set partitions.

A Faa sequence of a d -> e polynomial map is (f_0, ..., f_N), where f_k is
a map over (x, v_1, ..., v_k), d(k+1) variables: the k-th derivative at x
along the directions v_1..v_k, symmetric and k-linear in them (Cockett &
Seely, "The Faa di Bruno construction", TAC 25(15), 2011).  Any tower
yields one by reading each term on the pure-direction pattern, and two
compose by the multivariate Faa di Bruno formula over set partitions
(Hardy, "Combinatorics of partial derivatives", EJC 13, 2006).  A third
route, independent of both, expands f(x + t v) in a fresh coordinate t
once, with the base point x symbolic, and reads the n-th directional
derivative off the t^n coefficient as a map over x.
"""

import math
from fractions import Fraction

from .comonad import omega
from .errors import DimensionMismatch, InsufficientOrder, TagMismatch
from .poly import Poly, PolyMap
from .reports import LawReport, bool_entry, map_entry
from .sequences import PreDSeq

SAMPLE_POINTS = (Fraction(-2), Fraction(-1), Fraction(0),
                 Fraction(1, 2), Fraction(3))


def set_partitions(n):
    """The Bell(n) set partitions of {0..n-1}, each a tuple of blocks, the
    blocks in order of their least element."""
    if n == 0:
        yield ()
        return
    for part in set_partitions(n - 1):
        for i, block in enumerate(part):
            yield part[:i] + (block + (n - 1,),) + part[i + 1:]
        yield part + ((n - 1,),)


def _slots(d, slots, nvars):
    """The variables of the d-variable slots listed, in order, among nvars
    variables; slot 0 is x and slot i is v_i."""
    return [Poly.variable(nvars, s * d + j) for s in slots for j in range(d)]


def faa_sequence(tower):
    """(f_0, ..., f_N) of a polynomial tower: term k read with x in block 0,
    v_i in block 2^(i-1) and zero in every other block.  Any tower is read,
    whether or not it satisfies the axioms."""
    if not isinstance(tower, PreDSeq) or tower.base != "poly":
        raise TagMismatch("Faa sequences are read off polynomial towers")
    d = tower.dom
    out = []
    for k, term in enumerate(tower.terms):
        nvars = d * (k + 1)
        zero = [Poly.zero(nvars)] * d
        blocks = []
        for b in range(1 << k):
            blocks.extend(zero if b & (b - 1) else
                          _slots(d, [b.bit_length()], nvars))
        out.append(PolyMap(nvars, d << k, blocks).then(term))
    return tuple(out)


def faa_compose(fs, gs, n):
    """Term n of the composite of two Faa sequences, fs first: the sum over
    the set partitions pi of the directions v_1..v_n of
    g_|pi|(f_0)[f_|B|(x, v_B) : B in pi]."""
    if n >= min(len(fs), len(gs)):
        raise InsufficientOrder(f"Faa term {n} needs sequences of order {n}")
    if fs[0].cod != gs[0].dom:
        raise DimensionMismatch(
            f"composite needs cod {fs[0].cod} == dom {gs[0].dom}")
    d = fs[0].dom
    nvars = d * (n + 1)
    at = {}

    def f_at(block):
        """f_|B| at (x, v_B), over all of (x, v_1..v_n)."""
        if block not in at:
            select = _slots(d, [0] + [i + 1 for i in block], nvars)
            at[block] = PolyMap(nvars, len(select), select).then(
                fs[len(block)])
        return at[block]

    total = None
    for part in set_partitions(n):
        inner = f_at(())
        for block in part:
            inner = inner.pair(f_at(block))
        term = inner.then(gs[len(part)])
        total = term if total is None else total + term
    return total


def directional_oracle(f, n, direction):
    """The n-th derivative of f along `direction`, as a map over the base
    point x, via a fresh coordinate t: substitute x := x + t * direction,
    expand, and keep n! times the t^n coefficient."""
    if not isinstance(f, PolyMap):
        raise TagMismatch("the classical oracle works on polynomial maps")
    d = f.dom
    if len(direction) != d:
        raise DimensionMismatch("direction must match the domain")
    t = Poly.variable(d + 1, d)
    line = PolyMap(d + 1, d, [Poly.variable(d + 1, j) + t.scale(direction[j])
                              for j in range(d)])
    scale = math.factorial(n)
    return PolyMap(d, f.cod, [
        Poly(d, [(e[:d], scale * c) for e, c in comp.terms if e[d] == n])
        for comp in line.then(f).components])


def chain_equivalence_check(f, g, n, order=None, tol=None):
    """Three-route agreement for term n of the composite f-then-g.

    chain.tower-vs-iterated: term n of the tower composite equals the n-fold
    joint derivative of the base composite.
    chain.faa-vs-pattern (poly): the Faa composite of the two maps' Faa
    sequences equals the joint derivative read on the pure-direction
    pattern, as maps.
    chain.faa-vs-oracle (poly): the Faa composite at (x..x, v, ..., v)
    agrees with the fresh-coordinate expansion along v = (1, 2, ..., d) at
    fixed rational sample points x.
    """
    if order is None:
        order = n
    report = LawReport("chain")
    composite = f.then(g)
    f_tower, g_tower = omega(f, order), omega(g, order)
    iterated = omega(composite, n)
    report.add(map_entry("chain.tower-vs-iterated", n, 0, n,
                         f_tower.compose(g_tower).term(n), iterated.terms[n],
                         tol))
    if isinstance(f, PolyMap):
        faa_map = faa_compose(faa_sequence(f_tower.truncate(n)),
                              faa_sequence(g_tower.truncate(n)), n)
        report.add(map_entry("chain.faa-vs-pattern", n, 0, n, faa_map,
                             faa_sequence(iterated)[n], tol))
        v = [Fraction(j + 1) for j in range(f.dom)]
        oracle = directional_oracle(composite, n, v)
        for i, x in enumerate(SAMPLE_POINTS):
            point = [x] * f.dom
            report.add(bool_entry("chain.faa-vs-oracle", n, i,
                                  faa_map.eval(point + v * n)
                                  == oracle.eval(point), n))
    return report
