"""The packed polynomial core, checked on random polynomials against plain
dense-tuple Fraction reference implementations.

Every result must equal the public constructor's form of the reference
result (so packed monomials, field width and common denominator are
canonical) and must present the reference's terms in the same order.
Exponents are drawn around field-width boundaries, coefficients with mixed
denominators, and sums are drawn to cancel.
"""

import json
import os
import random
import sys
import time
from fractions import Fraction
from math import lcm

from hypothesis import assume, example, given, settings, strategies as st

from dseq import load_map, omega, poly
from dseq.parser import parse_map
from dseq.poly import Poly, PolyMap, _Kron, _Sparse, add, add_product
from dseq.selftest import run_selftest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# Reference implementations: a polynomial is a dict exponent tuple -> Fraction.

def ref_terms(acc):
    """Canonical term tuple: descending graded-lex order, no zeros."""
    return tuple(sorted(((e, c) for e, c in acc.items() if c),
                        key=lambda t: (sum(t[0]), t[0]), reverse=True))


def ref_dict(items):
    acc = {}
    for e, c in items:
        acc[e] = acc.get(e, Fraction(0)) + c
    return {e: c for e, c in acc.items() if c}


def ref_add(p, q):
    return ref_dict(list(p.items()) + list(q.items()))


def ref_mul(p, q):
    return ref_dict([(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                     for e1, c1 in p.items() for e2, c2 in q.items()])


def ref_pow(p, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, p)
    return out


def ref_scale(p, k):
    return ref_dict([(e, c * k) for e, c in p.items()])


def ref_subst(p, maps, nvars_out):
    total = {}
    for e, c in p.items():
        term = {(0,) * nvars_out: c}
        for j, k in enumerate(e):
            term = ref_mul(term, ref_pow(maps[j], k, nvars_out))
        total = ref_add(total, term)
    return total


def ref_shift(p, offset, new_nvars):
    return {(0,) * offset + e + (0,) * (new_nvars - offset - len(e)): c
            for e, c in p.items()}


def ref_differential(p, nvars):
    return ref_dict([(e[:j] + (e[j] - 1,) + e[j + 1:]
                      + tuple(int(i == j) for i in range(nvars)), c * e[j])
                     for e, c in p.items() for j in range(nvars) if e[j]])


def ref_eval(p, point):
    total = Fraction(0)
    for e, c in p.items():
        for x, k in zip(point, e):
            c *= x ** k
        total += c
    return total


def packed(nvars, acc):
    return Poly(nvars, list(acc.items()))


def same(got, nvars, want):
    """got is the canonical packed form of want, with its terms."""
    assert got.terms == ref_terms(want)
    assert got == packed(nvars, want)
    assert hash(got) == hash(packed(nvars, want))


# Exponents straddle the 16, 256 and 512 field boundaries.
EXPONENTS = [0, 0, 1, 2, 3, 15, 16, 17, 127, 128, 255, 256, 257]
coeffs = st.builds(Fraction, st.integers(-4, 4),
                   st.sampled_from([1, 1, 2, 3, 4, 6, 9]))


def dicts(nvars, max_terms=4, exponents=EXPONENTS):
    term = st.tuples(st.tuples(*[st.sampled_from(exponents)] * nvars), coeffs)
    return st.lists(term, max_size=max_terms).map(ref_dict)


@st.composite
def poly_pairs(draw, max_terms=4):
    """(nvars, p, q) where q often cancels some or all of p."""
    nvars = draw(st.integers(1, 3))
    p = draw(dicts(nvars, max_terms))
    q = draw(dicts(nvars, max_terms))
    cancel = draw(st.lists(st.sampled_from(sorted(p)), unique=True)
                  if p else st.just([]))
    q = ref_add(q, {e: -p[e] for e in cancel})
    return nvars, p, q


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
@example((1, {(256,): Fraction(1), (1,): Fraction(1, 2)},
          {(256,): Fraction(-1)}))
def test_add_and_sub(case):
    nvars, p, q = case
    P, Q = packed(nvars, p), packed(nvars, q)
    same(P + Q, nvars, ref_add(p, q))
    same(P - Q, nvars, ref_add(p, ref_scale(q, -1)))
    same(P - P, nvars, {})
    assert PolyMap._ops["sum"]([P, Q, -P]) == Q


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
@example((1, {(128,): Fraction(1, 2), (0,): Fraction(1, 3)},
          {(128,): Fraction(2, 3), (1,): Fraction(3, 4)}))
# a single monomial whose product crosses the degree-16 width boundary
@example((2, {(9, 0): Fraction(3, 2)},
          {(3, 4): Fraction(1, 3), (1, 0): Fraction(-2)}))
@example((2, {}, {(1, 1): Fraction(1, 2)}))     # a zero factor
def test_mul(case):
    nvars, p, q = case
    same(packed(nvars, p) * packed(nvars, q), nvars, ref_mul(p, q))


@st.composite
def cancelled_sums(draw):
    """(nvars, p, a, b): b cancels a's top-degree monomial, and perhaps
    more of a, and adds only monomials of lower degree.  So the sum of a
    and b holds zero entries, its widest key among them, and its live
    degree may sit below the 16 or 256 boundary that its width is for."""
    nvars = draw(st.integers(1, 3))
    p = draw(dicts(nvars))
    a = draw(dicts(nvars).filter(bool))
    top = max(a, key=lambda e: (sum(e), e))
    cancel = {top, *draw(st.lists(st.sampled_from(sorted(a)), unique=True))}
    extra = {e: c for e, c in draw(dicts(nvars)).items()
             if sum(e) < sum(top)}
    return nvars, p, a, ref_add(extra, {e: -a[e] for e in cancel})


@settings(max_examples=150, deadline=None)
@given(cancelled_sums(), st.integers(-3, 3))
@example((1, {(1,): Fraction(1), (0,): Fraction(2)},
          {(256,): Fraction(1), (15,): Fraction(1, 2)},
          {(256,): Fraction(-1)}), 1)
@example((1, {(241,): Fraction(1, 3), (3,): Fraction(1)},
          {(256,): Fraction(1), (15,): Fraction(1, 2)},
          {(256,): Fraction(-1)}), -2)
@example((2, {(1, 0): Fraction(1), (0, 1): Fraction(-1, 2)},
          {(16, 0): Fraction(3, 4), (2, 1): Fraction(1)},
          {(16, 0): Fraction(-3, 4), (0, 3): Fraction(1, 6)}), 3)
def test_add_product_reads_a_sum_with_cancelled_entries(case, k):
    """A summand's zero entries, its top key among them, leave no monomial
    in the product: the result, merged into a sum that already holds a
    constant and p, decodes to the canonical form and width."""
    nvars, p, a, b = case
    P, A, B = packed(nvars, p), packed(nvars, a), packed(nvars, b)
    context = _Sparse([P, A, B], [Poly.variable(3, 0) ** 2], nvars)
    d = context.den
    q = {}
    add(q, 1, context.encode(A).items())
    add(q, 1, context.encode(B).items())
    assert q[max(q)] == 0
    total = {0: 5 * d * d}
    add(total, d, context.encode(P).items())
    add_product(total, context.encode(P.scale(k)), q)
    want = ref_add(ref_add({(0,) * nvars: Fraction(5)}, p),
                   ref_scale(ref_mul(p, ref_add(a, b)), k))
    got = context.decode(total, d * d)
    same(got, nvars, want)
    assert got._w == max(4, max(map(sum, want), default=0).bit_length())


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(
    st.just(n), dicts(n, 3), st.integers(0, 3))))
def test_pow(case):
    nvars, p, k = case
    same(packed(nvars, p) ** k, nvars, ref_pow(p, k, nvars))


def test_pow_is_the_repeated_product_from_the_first_factor(monkeypatch):
    """p ** n equals p * ... * p, wide fields included; p ** 1 is p and
    runs no multiplication."""
    rng = random.Random(20184)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        p = packed(nvars, ref_dict(
            [(tuple(rng.choice(EXPONENTS[:9]) for _ in range(nvars)),
              Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])))
             for _ in range(rng.randint(1, 3))]))
        product = Poly.constant(nvars, 1)
        for n in range(7):
            assert p ** n == product
            product = product * p
    products = []
    real = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(
        (a, b)) or real(a, b))
    wide = packed(2, {(17, 0): Fraction(1), (1, 1): Fraction(-2, 3)})
    assert wide ** 1 is wide and not products


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), dicts(n), coeffs)))
def test_scale_and_neg(case):
    nvars, p, k = case
    same(packed(nvars, p).scale(k), nvars, ref_scale(p, k))
    same(-packed(nvars, p), nvars, ref_scale(p, -1))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), dicts(n), st.integers(0, 2), st.integers(0, 2))))
def test_shift(case):
    nvars, p, offset, extra = case
    new = nvars + offset + extra
    same(packed(nvars, p).shift(offset, new), new, ref_shift(p, offset, new))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(dicts(n), min_size=1, max_size=3))))
@example((1, [{(256,): Fraction(3, 2), (3,): Fraction(1)}]))
def test_differential(case):
    nvars, comps = case
    f = PolyMap(nvars, len(comps), [packed(nvars, p) for p in comps])
    df = f.differential()
    assert df.dom == 2 * nvars
    for got, p in zip(df.components, comps):
        same(got, 2 * nvars, ref_differential(p, nvars))


points = st.lists(st.builds(Fraction, st.integers(-3, 3),
                            st.integers(1, 3)), min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), dicts(n, exponents=[0, 1, 2, 3, 15, 16, 17]))), points)
def test_eval(case, point):
    nvars, p = case
    got = packed(nvars, p).eval(point[:nvars])
    assert isinstance(got, Fraction)
    assert got == ref_eval(p, point[:nvars])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), dicts(n, exponents=[0, 1, 2, 3, 15, 16, 17]))),
    st.lists(st.floats(-2, 2), min_size=3, max_size=3))
def test_eval_at_a_float_point_goes_term_by_term(case, point):
    """A float point is not scaled to integers: the value and its type are
    those of the plain term-by-term float sum."""
    nvars, p = case
    q = packed(nvars, p)
    want = 0
    for exps, coeff in q.terms:
        c = coeff.numerator * (q._den // coeff.denominator)
        for x, e in zip(point, exps):
            if e:
                c = c * x ** e
        want += c
    want = Fraction(want, q._den) if isinstance(want, int) else want / q._den
    got = q.eval(point[:nvars])
    assert type(got) is type(want) and got == want


def routes(nvars_out):
    """A substitute that is a variable or zero: the routing path."""
    return st.one_of(
        st.builds(lambda j: {tuple(int(i == j) for i in range(nvars_out)):
                             Fraction(1)}, st.integers(0, nvars_out - 1)),
        st.just({}))


@st.composite
def substitutions(draw, general):
    nvars = draw(st.integers(1, 3))
    nvars_out = draw(st.integers(1, 3))
    if general:
        maps = draw(st.lists(dicts(nvars_out, 3, [0, 1, 2, 15, 16]),
                             min_size=nvars, max_size=nvars))
        p = draw(dicts(nvars, 6, [0, 1, 2, 3]))
    else:
        maps = draw(st.lists(routes(nvars_out), min_size=nvars,
                             max_size=nvars))
        p = draw(dicts(nvars))
    return nvars, nvars_out, p, maps


@settings(max_examples=100, deadline=None)
@given(substitutions(general=False))
@example((3, 2, {(1, 0, 2): Fraction(1), (0, 2, 1): Fraction(-1),
                 (2, 0, 0): Fraction(1, 2)},
          [{(1, 0): Fraction(1)}, {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}]))
# routes (0, 2) increase and drop nothing: the parts come back as they stand
@example((2, 3, {(2, 1): Fraction(1, 2), (0, 3): Fraction(-1),
                 (1, 0): Fraction(3)},
          [{(1, 0, 0): Fraction(1)}, {(0, 0, 1): Fraction(1)}]))
# a permutation: the relabeled monomials need the sort
@example((3, 3, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(2),
                 (0, 0, 1): Fraction(3), (2, 1, 0): Fraction(1, 3)},
          [{(0, 0, 1): Fraction(1)}, {(1, 0, 0): Fraction(1)},
           {(0, 1, 0): Fraction(1)}]))
# x1 zeroed drops the degree-17 monomial: the width narrows
@example((2, 2, {(1, 16): Fraction(1), (2, 0): Fraction(1, 2),
                 (0, 0): Fraction(1)},
          [{(1, 0): Fraction(1)}, {}]))
# x1 zeroed leaves 3/6 alone: the denominator reduces
@example((2, 2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3),
                 (1, 1): Fraction(1, 6)},
          [{(1, 0): Fraction(1)}, {}]))
# x0 and x1 both become x0: a diagonal, which `subst` takes; x0 - x0 cancels
@example((2, 1, {(1, 0): Fraction(1), (0, 1): Fraction(-1),
                 (2, 0): Fraction(1, 2), (1, 1): Fraction(1, 3)},
          [{(1,): Fraction(1)}, {(1,): Fraction(1)}]))
def test_subst_routing(case):
    """A `then` whose first map's components are variables and zeros moves
    the exponent fields of the second map's monomials, or substitutes them
    where two variables route to one."""
    nvars, nvars_out, p, maps = case
    routing = PolyMap(nvars_out, nvars, [packed(nvars_out, q) for q in maps])
    assert routing._routes() is not None
    (got,) = routing.then(PolyMap(nvars, 1, [packed(nvars, p)])).components
    same(got, nvars_out, ref_subst(p, maps, nvars_out))


def test_a_routing_drops_what_reads_a_zeroed_field_unwalked(monkeypatch):
    """`lift` pushed through a doubling zeroes x1, x2, x5 and x6: its
    routing keeps one mask of those fields per field width met, and drops
    a monomial that reads one before walking its fields.  `flip` zeroes
    nothing and has no mask."""
    from dseq.maps import canonical_map, pfunctor_apply
    lift, flip = (pfunctor_apply(canonical_map(kind, 1), 1)
                  for kind in ("lift", "flip"))
    f = parse_map(["x0*x3 + x1 + x2^2*x5 + x4*x7", "x0^17 + x6"], 8, 2)
    walked = []
    real = poly._factors
    monkeypatch.setattr(poly, "_factors", lambda m, w: walked.append(m)
                        or real(m, w))
    got = lift.then(f)
    assert len(walked) == 3
    assert got == parse_map(["x0*x1 + x2*x3", "x0^17"], 4, 2)
    assert sorted(lift._kept["routing"][2]) == [4, 5]
    flip.then(f)
    assert flip._kept["routing"][2] is None


def test_a_diagonal_routing_substitutes(monkeypatch):
    """Routes that repeat a variable have no `_routed` shape: `then` takes
    them through `subst`, and moves the fields of an injective routing."""
    calls = []
    real = Poly.subst
    monkeypatch.setattr(Poly, "subst", lambda q, *a: calls.append(q) or real(
        q, *a))
    p = parse_map(["x0^2*x1 - x1"], 2, 1)
    assert parse_map(["x0", "x0"], 1, 2).then(p) == parse_map(
        ["x0^3 - x0"], 1, 1)
    assert len(calls) == 1
    calls.clear()
    assert parse_map(["x1", "x0"], 2, 2).then(p) == parse_map(
        ["x1^2*x0 - x0"], 2, 1)
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(substitutions(general=True))
@example((3, 2, {(2, 1, 0): Fraction(1), (1, 1, 1): Fraction(-2, 3)},
          [{(1, 0): Fraction(1, 2), (0, 0): Fraction(1)},
           {(0, 1): Fraction(3), (2, 0): Fraction(1)},
           {(1, 1): Fraction(1, 3)}]))
# x1 is a proper suffix of x0*x1, and the constant of both: a slot holds
# its own coefficient and a folded sum
@example((2, 2, {(0, 1): Fraction(1), (1, 1): Fraction(-2, 3),
                 (0, 0): Fraction(5)},
          [{(1, 0): Fraction(1, 2), (0, 0): Fraction(1)},
           {(0, 1): Fraction(3), (2, 0): Fraction(1)}]))
@example((2, 1, {}, [{(1,): Fraction(2)}, {(2,): Fraction(1)}]))
@example((2, 2, {(0, 0): Fraction(-7, 3)},
          [{(1, 1): Fraction(1)}, {(0, 2): Fraction(1, 2)}]))
# x2 ends every monomial
@example((3, 2, {(1, 0, 1): Fraction(1), (0, 2, 1): Fraction(1, 2),
                 (0, 0, 1): Fraction(-3)},
          [{(1, 0): Fraction(2), (0, 0): Fraction(1)},
           {(0, 1): Fraction(1), (1, 0): Fraction(-1)},
           {(1, 1): Fraction(1, 3), (0, 0): Fraction(2)}]))
@example((2, 2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3),
                 (1, 1): Fraction(-5, 4)},
          [{(1, 0): Fraction(1, 3), (0, 1): Fraction(1)},
           {(0, 1): Fraction(2, 5), (0, 0): Fraction(1, 7)}]))
# the merged sums at x2 and at the empty suffix cancel to zero and to 5,
# in fields widened by x1^16
@example((3, 2, {(1, 0, 1): Fraction(1), (0, 1, 1): Fraction(-1),
                 (1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1),
                 (0, 0, 0): Fraction(5)},
          [{(1, 0): Fraction(1), (0, 16): Fraction(1)},
           {(1, 0): Fraction(1), (0, 16): Fraction(1)},
           {(1, 1): Fraction(2)}]))
# the merged sums at x2 (1/2 - x0) and at the empty suffix (-x0 plus the
# fold) fall below the width that x1^16 gave them
@example((3, 2, {(1, 0, 1): Fraction(1), (0, 1, 1): Fraction(-1),
                 (0, 0, 1): Fraction(1, 2), (1, 0, 0): Fraction(1),
                 (0, 1, 0): Fraction(-1)},
          [{(1, 0): Fraction(1), (0, 16): Fraction(1, 3)},
           {(1, 0): Fraction(2), (0, 16): Fraction(1, 3)},
           {(1, 1): Fraction(2, 3)}]))
def test_subst_general_and_then(case):
    nvars, nvars_out, p, maps = case
    qs = [packed(nvars_out, q) for q in maps]
    want = ref_subst(p, maps, nvars_out)
    same(packed(nvars, p).subst(qs, nvars_out), nvars_out, want)
    outer = PolyMap(nvars, 2, [packed(nvars, p), packed(nvars, p).scale(2)])
    composite = PolyMap(nvars_out, nvars, qs).then(outer)
    same(composite.components[0], nvars_out, want)
    same(composite.components[1], nvars_out, ref_scale(want, 2))


@settings(max_examples=60, deadline=None)
@given(substitutions(general=True), st.data())
def test_subst_of_two_components_shares_one_power_cache(case, data):
    """The second substitution reads the powers the first one kept, and
    every kept power decodes to the map's power."""
    nvars, nvars_out, p, maps = case
    q = data.draw(dicts(nvars, 6, [0, 1, 2, 3]))
    qs = [packed(nvars_out, m) for m in maps]
    P, Q = packed(nvars, p), packed(nvars, q)
    context = _Sparse(qs, [P, Q], nvars_out)
    same(P.subst(qs, nvars_out, context), nvars_out,
         ref_subst(p, maps, nvars_out))
    kept = dict(context.powers)
    same(Q.subst(qs, nvars_out, context), nvars_out,
         ref_subst(q, maps, nvars_out))
    assert all(context.powers[key] is got for key, got in kept.items())
    for (j, e), got in context.powers.items():
        same(context.decode(got, context.den ** e), nvars_out,
             ref_pow(maps[j], e, nvars_out))


@st.composite
def mixed_width_compositions(draw):
    """(inner, outer) dicts where the outer components' degrees fall on
    both sides of the 16 and 256 field-width boundaries, so one composite
    substitutes into components of different widths."""
    nvars = draw(st.integers(3, 4))
    nvars_out = draw(st.integers(1, 3))
    inner = draw(st.lists(dicts(nvars_out, 2, [0, 1, 2]), min_size=nvars,
                          max_size=nvars))
    outer = []
    for _ in range(draw(st.integers(2, 3))):
        p = draw(dicts(nvars, 3, [0, 1, 2]))
        top = draw(st.sampled_from([0, 16, 200]))
        if top:
            j = draw(st.integers(0, nvars - 1))
            p = ref_add(p, {tuple(top * (i == j) for i in range(nvars)):
                            Fraction(1)})
        outer.append(p)
    return nvars, nvars_out, inner, outer


@settings(max_examples=40, deadline=None)
@given(mixed_width_compositions())
@example((3, 3,
          [{(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(1)},
           {(0, 1, 0): Fraction(1), (0, 0, 0): Fraction(1)},
           {(0, 0, 1): Fraction(1), (0, 0, 0): Fraction(1)}],
          [{(2, 0, 0): Fraction(1)},
           {(0, 2, 0): Fraction(1), (0, 0, 200): Fraction(1)}]))
def test_then_components_of_different_widths(case):
    """`then` shares one power cache across components of any width."""
    nvars, nvars_out, inner, outer = case
    f = PolyMap(nvars_out, nvars, [packed(nvars_out, q) for q in inner])
    g = PolyMap(nvars, len(outer), [packed(nvars, p) for p in outer])
    for got, p in zip(f.then(g).components, outer):
        same(got, nvars_out, ref_subst(p, inner, nvars_out))


def test_repack_in_many_variables():
    """Widening the fields reads only the nonzero fields of a monomial, so
    a degree crossing 16 costs nothing per variable; shifting the monomial
    once per variable took 3.5 s on a 2-vCPU box."""
    n = 100_000
    start = time.perf_counter()
    (p,) = parse_map(["x0^16 + x99999"], n, 1).components
    assert time.perf_counter() - start < 0.5
    high = (16,) + (0,) * (n - 1)
    low = (0,) * (n - 1) + (1,)
    assert p.terms == ref_terms({high: Fraction(1), low: Fraction(1)})


def test_constructor_in_many_variables():
    """The public constructor packs only the nonzero exponent fields;
    shifting the monomial once per variable took 1.07 s at 100,000
    variables on a 2-vCPU box."""
    n = 100_000
    start = time.perf_counter()
    p = Poly(n, [((0,) * (n - 1) + (1,), 1)])
    assert time.perf_counter() - start < 0.5
    assert p == Poly.variable(n, n - 1)
    assert Poly(n, [((3,) + (0,) * (n - 2) + (2,), Fraction(1, 2))]) == (
        Poly.variable(n, 0) ** 3 * Poly.variable(n, n - 1) ** 2
        * Poly.constant(n, Fraction(1, 2)))


# Dense substitution: `_Kron` packs the coefficients in x0 and x1 into one
# int per direction part.

kron_coeffs = st.builds(Fraction, st.integers(-9, 9),
                        st.sampled_from([1, 2, 3, 4, 6, 9]))


def bounded_dicts(nvars, degree, max_terms):
    """Polynomials of total degree at most `degree`: each exponent tuple
    counts the variables of a word of that length at most."""
    exps = st.lists(st.integers(0, nvars - 1), max_size=degree).map(
        lambda word: tuple(word.count(i) for i in range(nvars)))
    return st.lists(st.tuples(exps, kron_coeffs),
                    max_size=max_terms).map(ref_dict)


@st.composite
def dense_substitutions(draw):
    """(nvars_out, p, maps) with 2-4 output variables, the maps' degree
    times p's at most 15, zero and constant maps among the others, and a p
    that may vanish on them: x1 := x0's map, p(x0, x1) - p(x1, x0)."""
    nvars_out = draw(st.integers(2, 4))
    nvars = draw(st.integers(1, 3))
    top = draw(st.integers(0, 15))
    maps = draw(st.lists(st.one_of(
        st.just({}), bounded_dicts(nvars_out, 0, 1),
        bounded_dicts(nvars_out, top, 6)), min_size=nvars, max_size=nvars))
    p = draw(bounded_dicts(nvars, 15 // max(top, 1), 8))
    if nvars > 1 and draw(st.booleans()):
        maps[1] = maps[0]
        p = ref_add(p, {(e[1], e[0]) + e[2:]: -c for e, c in p.items()})
    return nvars_out, p, maps


def ref_bits(maps, comps):
    """The digit width B from the bound in Fractions: G is |p| at the maps'
    L1 norms times p's denominator and d^deg, the most over comps, and B
    the least of 8, 16, 32, 64, 128, ... bits that holds bitlen(G) + 2."""
    d = lcm(*[q._den for q in maps])
    point = [sum(abs(c) for _, c in q.terms) for q in maps]
    size = max(int(ref_eval({e: abs(c) for e, c in p.terms}, point)
                   * p._den * d ** max(p.degree(), 0)) for p in comps)
    bits = 8
    while bits < size.bit_length() + 2:
        bits *= 2
    return bits


@settings(max_examples=150, deadline=None)
@given(dense_substitutions())
# G = 7 * 9 = 63 = 2^(B-2) - 1 at B = 8: the largest digit the bound allows
@example((2, {(1,): Fraction(7, 3)}, [{(0, 1): Fraction(9, 2)}]))
@example((3, {(1,): Fraction(-7)}, [{(1, 0, 0): Fraction(9)}]))
# x1^15, x0^7*x1^8 and x0^15: the first row's last slot, a middle row, and
# the last row
@example((2, {(1, 0): Fraction(1), (0, 1): Fraction(-1, 2)},
          [{(15, 0): Fraction(1, 3), (0, 0): Fraction(-1)},
           {(0, 15): Fraction(2), (7, 8): Fraction(-1, 9)}]))
# G = 9 * 27^15, about 2^74: wider than 64 bits
@example((2, {(15,): Fraction(9)},
          [{(1, 0): Fraction(9), (0, 1): Fraction(-9), (0, 0): Fraction(9)}]))
def test_kron_subst(case):
    """The dense walk gives the canonical form of the reference wherever
    its digits fit 64 bits; where they would not, `_Kron.rule` refuses the
    input and the `_Sparse` walk gives it."""
    nvars_out, p, maps = case
    qs = [packed(nvars_out, q) for q in maps]
    P = packed(len(maps), p)
    kron = _Kron(qs, [P], nvars_out)
    assert kron.bits == ref_bits(qs, [P])
    if kron.bits <= 64:
        got = P.subst(qs, nvars_out, kron)
    else:
        assert _Kron.rule(qs, [P], nvars_out) is None
        got = P.subst(qs, nvars_out, _Sparse(qs, [P], nvars_out))
    same(got, nvars_out, ref_subst(p, maps, nvars_out))


def test_kron_rule_refuses_digits_wider_than_64_bits():
    """Of two inputs dense enough for `_Kron`, the one whose bound needs
    digits wider than 64 bits is refused, so that it takes `_Sparse`."""
    comp = Poly(2, [((a, b), 1) for a in range(4) for b in range(4 - a)])

    def maps(c):
        return [Poly(2, [((1, 0), c), ((0, 1), 1), ((0, 0), 1)])] * 2

    # G = 1 + 2*L + 3*L^2 + 4*L^3 at L = 3, and near 2^62 at L = 2^20 + 2
    assert _Kron.rule(maps(1), [comp], 2).bits == 16
    assert _Kron.rule(maps(1 << 20), [comp], 2) is None


# (scale, B): x0^7 scaled by these, with x0 := x0 in 3 variables, packs
# on a grid of 8 slots per row at each digit width B.
EDGE_WIDTHS = [(1, 8), (100, 16), (1 << 20, 32), (1 << 40, 64)]


def edge_digits(scale, bits):
    """(context, acc, want): digits of +-(2^(B-1) - 1), next to each other
    so that their borrows chain, in every row and in two direction parts,
    up to the last slot of the last row."""
    q = Poly(3, [((1, 0, 0), 1)])
    kron = _Kron([q], [Poly(1, [((7,), scale)])], 3)
    assert (kron.bits, kron.grid) == (bits, 8)
    edge = (1 << bits - 1) - 1
    digits = {0: {(0, 0): edge, (0, 1): -edge, (0, 2): -edge, (1, 2): edge,
                  (7, 0): -edge, (0, 7): edge, (7, 7): -edge},
              1: {(0, 0): -edge, (3, 4): -edge, (6, 0): edge, (7, 7): edge}}
    key = {0: 0, 1: (1 << 12) | 1}
    acc = {key[k]: sum(c << bits * (a * 8 + b) for (a, b), c in ds.items())
           for k, ds in digits.items()}
    want = {(a, b, k): Fraction(c) for k, ds in digits.items()
            for (a, b), c in ds.items()}
    return kron, acc, want


def test_kron_decode_reads_digits_at_the_edge_of_their_range():
    """Edge digits come back exact at each digit width: 8, 16, 32 and 64
    bits."""
    for scale, bits in EDGE_WIDTHS:
        kron, acc, want = edge_digits(scale, bits)
        same(kron.decode(acc, 1), 3, want)


def test_kron_decode_does_not_depend_on_the_byte_order(monkeypatch):
    """The digits are read as little-endian whatever `sys.byteorder` names:
    under the other value, the same inputs decode to the same `Poly`."""
    other = {"little": "big", "big": "little"}[sys.byteorder]
    monkeypatch.setattr(sys, "byteorder", other)
    for scale, bits in EDGE_WIDTHS:
        kron, acc, want = edge_digits(scale, bits)
        same(kron.decode(acc, 1), 3, want)


def dense_calls(monkeypatch):
    """The list that each dense substitution appends its output to."""
    calls = []
    decode = _Kron.decode
    monkeypatch.setattr(_Kron, "decode", lambda kron, acc, den: calls.append(
        decode(kron, acc, den)) or calls[-1])
    return calls


def fixture_map(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return load_map(json.load(fh))


def test_then_takes_the_dense_path_on_dense_towers_only(monkeypatch):
    """A dense cubic pair substitutes densely at orders 2 and 3, to the
    same towers as the `_Sparse` walk; the sparse ladder pair, degree-200
    maps and 1-variable outputs never do."""
    calls, made = dense_calls(monkeypatch), []
    init = _Kron.__init__
    monkeypatch.setattr(_Kron, "__init__", lambda kron, maps, comps, n: (
        made.append((kron, maps, comps)) or init(kron, maps, comps, n)))
    f, g = (fixture_map(f"map_dense22_{side}.json")
            for side in ("first", "second"))
    dense = [omega(f, n).compose(omega(g, n)) for n in (2, 3)]
    assert len(calls) == 2 * (3 + 4)
    # the integer bound gives every context the width the rational one does
    assert [kron.bits for kron, _, _ in made] == [
        ref_bits(maps, comps) for _, maps, comps in made]
    monkeypatch.setattr(_Kron, "rule", classmethod(lambda *args: None))
    assert dense == [omega(f, n).compose(omega(g, n)) for n in (2, 3)]
    monkeypatch.undo()

    calls = dense_calls(monkeypatch)
    ladder = parse_map(["x0^3 + x0*x1^2 - 2*x1 + 1",
                        "x1^3 - x0^2*x1 + 1/2*x0"], 2, 2)
    second = parse_map(["x0^2*x1 + x1^2 - x0 + 2",
                        "x0^3 - 3/2*x0*x1^2 + x1"], 2, 2)
    for n in range(1, 6):
        omega(ladder, n).compose(omega(second, n))
    pow200 = fixture_map("map_pow200.json")
    omega(pow200, 1).compose(omega(pow200, 1))
    # dense in every other respect: 3 monomials in one part, 8 outer
    # monomials, degree 2 * 7
    quadratic = parse_map(["x0^2 - x0 + 1/2"], 1, 1)
    septic = parse_map([" + ".join(f"{k + 1}*x0^{k}" for k in range(8))], 1, 1)
    quadratic.then(septic)
    assert calls == []


nonzero_coeffs = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1),
                           st.sampled_from([1, 2, 3, 4, 6, 9]))


def dense_part(top):
    """3 to 8 distinct monomials in x0 and x1 of degree at most top, with
    nonzero coefficients."""
    exps = st.tuples(st.integers(0, top), st.integers(0, top)).filter(
        lambda e: sum(e) <= top)
    return st.dictionaries(exps, nonzero_coeffs, min_size=3, max_size=8)


@st.composite
def kron_inputs(draw):
    """(n, maps, comps): maps dense in x0 and x1, some with a second
    direction part in x2, and an outer component of 8 or more monomials."""
    n = draw(st.integers(2, 4))
    nvars = draw(st.integers(2, 3))
    top = draw(st.integers(2, 3))
    maps = []
    for _ in range(nvars):
        terms = {e + (0,) * (n - 2): c
                 for e, c in draw(dense_part(top)).items()}
        if n > 2 and draw(st.booleans()):
            terms.update({e + (1,) + (0,) * (n - 3): c
                          for e, c in draw(dense_part(top)).items()})
        maps.append(Poly(n, list(terms.items())))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(
        lambda e: sum(e) <= 3)
    comps = [draw(st.dictionaries(exps, nonzero_coeffs,
                                  min_size=8, max_size=12))]
    comps += draw(st.lists(st.dictionaries(exps, kron_coeffs, max_size=12),
                           max_size=2))
    return n, maps, [Poly(nvars, list(c.items())) for c in comps]


@settings(max_examples=60, deadline=None)
@given(kron_inputs())
def test_dense_and_sparse_contexts_give_the_same_parts(case):
    """On every input that `_Kron.rule` accepts, the two encodings of one
    substitution give identical packed parts."""
    n, maps, comps = case
    kron = _Kron.rule(maps, comps, n)
    assume(kron is not None)
    assert kron.bits == ref_bits(maps, comps)
    sparse = _Sparse(maps, comps, n)
    for p in comps:
        dense, plain = p.subst(maps, n, kron), p.subst(maps, n, sparse)
        assert (dense._w, dense._mons, dense._nums, dense._den) == (
            plain._w, plain._mons, plain._nums, plain._den)


def test_selftest_reaches_the_dense_decode(monkeypatch):
    """`selftest`'s dense chain family substitutes on `_Kron`, so suite
    chain, and no other, fails when `_Kron.decode` drops one digit."""
    decode = _Kron.decode
    monkeypatch.setattr(_Kron, "decode", lambda kron, acc, den: Poly(
        kron.n, decode(kron, acc, den).terms[:-1]))
    assert [s["suite"] for s in run_selftest(42, 1)["suites"]
            if not s["pass"]] == ["chain"]


def test_selftest_reaches_the_shared_accumulator(monkeypatch):
    """Products, sums and both encodings of a substitution all merge
    through `add`, so `selftest` fails when `add` drops its multiplier."""
    real = poly.add
    monkeypatch.setattr(poly, "add",
                        lambda acc, k, pairs: real(acc, 1, pairs))
    assert not run_selftest(42, 1)["pass"]
