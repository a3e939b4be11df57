"""Seeded random fixtures for the law batteries and known-bad towers.

Generation follows one discipline everywhere: domain and codomain
dimensions in {1, 2}, total degree at most 3, coefficients drawn from
{-3..3} over denominators {1, 2}.  Every generator takes an explicit RNG so
suites are reproducible from a (seed, label) pair.
"""

import random
from fractions import Fraction
from itertools import product

from . import expr as et
from .parser import parse_map
from .poly import Poly, PolyMap
from .sequences import PreDSeq


def rng_for(seed, label):
    """Independent deterministic stream per suite."""
    return random.Random(f"{seed}:{label}")


def random_fraction(rng, nonzero=False):
    while True:
        num = rng.randint(-3, 3)
        if num or not nonzero:
            return Fraction(num, rng.choice((1, 2)))


def random_dim(rng):
    return rng.randint(1, 2)


def _random_exponents(rng, nvars, max_degree):
    exps = [0] * nvars
    if nvars:
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_poly(rng, nvars, max_degree=3, max_terms=3):
    items = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = _random_exponents(rng, nvars, max_degree)
        items[exps] = items.get(exps, Fraction(0)) + random_fraction(rng)
    return Poly(nvars, list(items.items()))


def random_poly_map(rng, dom, cod, max_degree=3, max_terms=3):
    return PolyMap(dom, cod, [random_poly(rng, dom, max_degree, max_terms)
                              for _ in range(cod)])


def random_dense_map(rng, dom, cod):
    """Every monomial of degree <= 3 in every component, none zero."""
    support = [e for e in product(range(4), repeat=dom) if sum(e) <= 3]
    return PolyMap(dom, cod, [Poly(dom, [(e, random_fraction(rng, True))
                                         for e in support])
                              for _ in range(cod)])


def random_linear_map(rng, dom, cod):
    """Homogeneous degree-1 components: an additive (linear) map."""
    comps = []
    for _ in range(cod):
        p = Poly.zero(dom)
        for j in range(dom):
            p = p + Poly.variable(dom, j).scale(random_fraction(rng))
        comps.append(p)
    return PolyMap(dom, cod, comps)


def random_nonlinear_map(rng, dom, cod):
    """Guaranteed to contain a monomial of total degree >= 2."""
    m = random_poly_map(rng, dom, cod, max_degree=3)
    exps = _random_exponents(rng, dom, 1)
    j = rng.randrange(dom)
    exps = tuple(e + (2 if i == j else 0) for i, e in enumerate(exps))
    spike = Poly(dom, [(exps, random_fraction(rng, nonzero=True))])
    comps = list(m.components)
    i = rng.randrange(cod)
    comps[i] += spike
    if all(p.degree() < 2 for p in comps):
        # the spike cancelled a monomial the map already had
        comps[i] += spike
    return PolyMap(dom, cod, comps)


def random_tower(rng, dom, cod, order, max_degree=2):
    """Arbitrary tower: independent random maps at every level (no axioms)."""
    terms = [random_poly_map(rng, dom << n, cod, max_degree)
             for n in range(order + 1)]
    return PreDSeq(dom, cod, tuple(terms))


def random_elem_map(rng, dom, cod):
    """Shallow smooth trees: rational combinations of coordinates, their
    cubes and sin/cos/exp applied to single coordinates; constants on no
    coordinates."""
    comps = []
    for _ in range(cod):
        node = et.const(random_fraction(rng))
        for _ in range(rng.randint(1, 2) if dom else 0):
            j = rng.randrange(dom)
            leaf = rng.choice((et.var(j), et.sin(et.var(j)), et.cos(et.var(j)),
                               et.exp(et.var(j)), et.pow_(et.var(j), 3)))
            node = et.add(node, et.mul(et.const(random_fraction(rng, True)), leaf))
        comps.append(node)
    return et.ElemMap(dom, cod, comps)


def random_map(rng, dom, cod, base):
    """A random map of the given base, drawn by that base's generator."""
    draw = random_poly_map if base == "poly" else random_elem_map
    return draw(rng, dom, cod)


# Hand-broken towers.  Each surgical fixture violates exactly one axiom
# family; the joint fixture breaks the lift law (and necessarily, since its
# top term is not multilinear, the additivity law too), and `corrupt_ds1`
# vanishing and additivity both: no polynomial term fails vanishing alone,
# since a monomial that reads no direction has degree 0, not 1, in them.

def corrupt_ds1():
    """Order-1 tower failing DS.1' and DS.2' only: term 1 has the
    direction-free monomial x0."""
    return PreDSeq(1, 1, (
        parse_map(["x0^2"], 1, 1),
        parse_map(["2*x0*x1 + x0"], 2, 1),
    ))


def corrupt_ds2():
    """Order-2 tower failing only DS.2': top term has a quadratic direction."""
    return PreDSeq(1, 1, (
        parse_map(["x0^2"], 1, 1),
        parse_map(["2*x0*x1"], 2, 1),
        parse_map(["2*x1*x2 + 2*x0*x3 + x1^2*x2^2"], 4, 1),
    ))


def corrupt_ds3():
    """Order-2 tower failing only DS.3': top term dropped to zero."""
    return PreDSeq(1, 1, (
        parse_map(["x0^2"], 1, 1),
        parse_map(["2*x0*x1"], 2, 1),
        parse_map(["0"], 4, 1),
    ))


def corrupt_ds4():
    """Order-2 tower failing only DS.4': asymmetric bilinear top term."""
    return PreDSeq(2, 1, (
        parse_map(["0"], 2, 1),
        parse_map(["0"], 4, 1),
        parse_map(["x2*x5"], 8, 1),
    ))


def corrupt_ds3_joint():
    """Order-2 tower whose top term x0*x1*x2*x3 breaks the lift law (the
    pattern (a,0,0,b) yields 0 instead of 2ab) and direction additivity."""
    return PreDSeq(1, 1, (
        parse_map(["x0^2"], 1, 1),
        parse_map(["2*x0*x1"], 2, 1),
        parse_map(["x0*x1*x2*x3"], 4, 1),
    ))


CORRUPT_BUILDERS = {
    "DS.2'": corrupt_ds2,
    "DS.3'": corrupt_ds3,
    "DS.4'": corrupt_ds4,
}
