"""The hash-consed tape behind every elementary tree operation, checked on
random trees against plain recursive reference implementations."""

import math
import operator
import os
import random
import struct
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from dseq import axioms, expr, maps, sequences
from dseq.axioms import check_ds_primed, check_ds_unprimed
from dseq.comonad import omega
from dseq.expr import (ElemMap, _float_values, _run, _tape, add, const, cos,
                       exp, mul, neg, pow_, sin, var)
from dseq.errors import EngineError, ParseError, TagMismatch
from dseq.fixtures import random_elem_map
from dseq.jsonio import load_seq, read_json
from dseq.maps import (CoordMap, canonical_map, coord_slice, identity,
                       pfunctor_apply, proj, zero_map)
from dseq.parser import format_map, parse_component, parse_map
from dseq.selftest import run_selftest
from dseq.sequences import PreDSeq, seq_zero

DOM = 3


# Reference implementations: one recursive walk per operation, repeats and all.

def ref_eval(node, point):
    tag = node[0]
    if tag == "const":
        return float(node[1])
    if tag == "var":
        return point[node[1]]
    if tag == "add":
        return ref_eval(node[1], point) + ref_eval(node[2], point)
    if tag == "mul":
        return ref_eval(node[1], point) * ref_eval(node[2], point)
    if tag == "pow":
        return ref_eval(node[1], point) ** node[2]
    return getattr(math, tag)(ref_eval(node[1], point))


def ref_deriv(node, j):
    tag = node[0]
    if tag == "const":
        return const(0)
    if tag == "var":
        return const(1 if node[1] == j else 0)
    if tag == "add":
        return add(ref_deriv(node[1], j), ref_deriv(node[2], j))
    if tag == "mul":
        a, b = node[1], node[2]
        return add(mul(ref_deriv(a, j), b), mul(a, ref_deriv(b, j)))
    if tag == "pow":
        a, n = node[1], node[2]
        if n == 0:
            return const(0)
        return mul(mul(const(n), pow_(a, n - 1)), ref_deriv(a, j))
    if tag == "sin":
        return mul(cos(node[1]), ref_deriv(node[1], j))
    if tag == "cos":
        return mul(neg(sin(node[1])), ref_deriv(node[1], j))
    return mul(exp(node[1]), ref_deriv(node[1], j))


def ref_subst(node, reps):
    tag = node[0]
    if tag == "const":
        return node
    if tag == "var":
        return reps[node[1]]
    if tag == "add":
        return add(ref_subst(node[1], reps), ref_subst(node[2], reps))
    if tag == "mul":
        return mul(ref_subst(node[1], reps), ref_subst(node[2], reps))
    if tag == "pow":
        return pow_(ref_subst(node[1], reps), node[2])
    return (tag, ref_subst(node[1], reps))


def ref_format(node, ctx=1):
    """ctx: 1 inside a sum, 2 inside a product, 3 as a power base."""
    tag = node[0]
    if tag == "const":
        v = node[1]
        if ctx >= 3 and (v < 0 or v.denominator != 1):
            return f"({v})"
        return str(v)
    if tag == "var":
        return f"x{node[1]}"
    if tag == "pow":
        s = f"{ref_format(node[1], 3)}^{node[2]}"
        return f"({s})" if ctx >= 3 else s
    if tag == "mul":
        s = f"{ref_format(node[1], 2)}*{ref_format(node[2], 2)}"
        return f"({s})" if ctx >= 3 else s
    if tag == "add":
        s = f"{ref_format(node[1], 1)} + {ref_format(node[2], 1)}"
        return f"({s})" if ctx >= 2 else s
    return f"{tag}({ref_format(node[1], 1)})"


def subtrees(node):
    yield node
    for part in node[1:]:
        if isinstance(part, tuple):
            yield from subtrees(part)


def outcome(f, *args):
    """The value of f(*args), or the fact that it left float range."""
    try:
        value = f(*args)
    except (OverflowError, ValueError):
        return "raised"
    return "nan" if math.isnan(value) else value


# Trees drawn through the smart constructors.  Sums and products nest to the
# left only, as the grammar parses them, so printed trees reparse exactly.
def leaves(nvars):
    return st.one_of(
        st.builds(var, st.integers(0, nvars - 1)),
        st.builds(const, st.sampled_from([2, -1, Fraction(-3, 4), 1, 0])))


BUILD = {"add": add, "mul": mul, "sin": sin, "cos": cos, "exp": exp}


@st.composite
def trees(draw, depth=5, nvars=DOM):
    tag = draw(st.sampled_from(["leaf", "add", "mul", "pow", "sin", "cos",
                                "exp", "add", "mul"]))
    if depth == 0 or tag == "leaf":
        return draw(leaves(nvars))
    a = draw(trees(depth - 1, nvars))
    if tag == "pow":
        return pow_(a, draw(st.sampled_from([2, 3, 1, 0])))
    if tag in ("add", "mul"):
        return BUILD[tag](a, draw(trees(depth - 1, nvars).filter(
            lambda b: b[0] != tag)))
    return BUILD[tag](a)


@st.composite
def forests(draw):
    """Components that share subtrees both as objects and by structure."""
    ts = draw(st.lists(trees(), min_size=1, max_size=3))
    return ts + [mul(ts[0], add(ts[-1], ts[0]))]


points = st.lists(st.floats(-1, 1), min_size=DOM, max_size=DOM)


@settings(max_examples=100, deadline=None)
@given(trees())
@example(pow_(pow_(var(0), 2), 3))
@example(pow_(mul(const(2), add(var(1), const(Fraction(-1, 2)))), 2))
@example(mul(var(0), sin(mul(const(-1), var(2)))))
def test_format_then_parse_is_identity(t):
    text = format_map(ElemMap(DOM, 1, [t]))[0]
    assert text == ref_format(t)
    assert parse_component(text, DOM, "elementary") == t


def operands(ins):
    if ins[0] in ("add", "mul"):
        return ins[1:]
    return () if ins[0] in ("const", "var") else ins[1:2]


def assert_lean_tape(m):
    """One instruction per distinct subtree of m's components, each after
    the instructions it reads, and none that no component reads."""
    code, roots = m.tape
    distinct = {s for t in m.components for s in subtrees(t)}
    assert len(code) == len(set(code)) == len(distinct)
    assert len(code) == len(_tape(list(m.components))[0])
    live = set(roots)
    for k in range(len(code) - 1, -1, -1):
        assert all(i < k for i in operands(code[k]))
        if k in live:
            live.update(operands(code[k]))
    assert live == set(range(len(code)))
    assert _run(m.tape, ElemMap._ops, lambda leaf: leaf) == list(m.components)


@settings(max_examples=60, deadline=None)
@given(forests(), st.lists(trees(), min_size=DOM, max_size=DOM))
def test_tape_has_one_instruction_per_distinct_subtree(ts, reps):
    f = ElemMap(DOM, len(ts), ts)
    inner = ElemMap(DOM, DOM, reps)
    assert_lean_tape(f)
    for m in (inner.then(f), zero_map(DOM, DOM, "elementary").then(f),
              f + ElemMap(DOM, len(ts), ts[::-1]), f.pair(inner),
              f.differential(), pfunctor_apply(f, 2), f.tangent()):
        assert_lean_tape(m)


@settings(max_examples=60, deadline=None)
@given(forests(), points)
def test_eval_matches_reference(ts, point):
    m = ElemMap(DOM, len(ts), ts)
    want = [outcome(ref_eval, t, point) for t in ts]
    if "raised" in want:
        with pytest.raises((OverflowError, ValueError)):
            m.eval(point)
    else:
        got = m.eval(point)
        assert ["nan" if math.isnan(v) else v for v in got] == want


@settings(max_examples=60, deadline=None)
@given(st.lists(trees(), min_size=DOM, max_size=DOM), forests())
def test_then_matches_reference(reps, ts):
    inner = ElemMap(DOM, DOM, reps)
    outer = ElemMap(DOM, len(ts), ts)
    assert list(inner.then(outer).components) == [ref_subst(t, reps)
                                                  for t in ts]
    assert list(pfunctor_apply(outer, 1).components) == ts + [
        ref_subst(t, [var(DOM + i) for i in range(DOM)]) for t in ts]


@settings(max_examples=60, deadline=None)
@given(forests())
def test_differential_matches_reference(ts):
    want = []
    for t in ts:
        total = const(0)
        for j in range(DOM):
            total = add(total, mul(ref_deriv(t, j), var(DOM + j)))
        want.append(total)
    df = ElemMap(DOM, len(ts), ts).differential()
    assert list(df.components) == want
    assert format_map(df) == [ref_format(t) for t in want]


# Sampled equality runs each tape once over columns of floats; a run per
# sample point is the reference.  Where the run at a point raises, or a root
# is not finite there, the point carries no information.

def ref_finite(m, point):
    try:
        vals = _float_values(_tape(list(m.components)), point)
    except (OverflowError, ValueError):
        return None
    return vals if all(map(math.isfinite, vals)) else None


def ref_equal_witness(f, g, tol=1e-9):
    points = f.sample_points()
    informative = False
    for point in points:
        ref, got = ref_finite(f, point), ref_finite(g, point)
        if ref is None and got is None:
            continue
        if ref is None or got is None or any(
                abs(a - b) > tol * max(1.0, abs(a)) for a, b in zip(ref, got)):
            return False, point
        informative = True
    return (True, None) if informative else (False, points[0])


WILD_CONSTS = [2, -1, Fraction(3, 4), 0, 1, 700, 1000, 10 ** 300, 10 ** 400,
               Fraction(1, 10 ** 400)]


def wild_tree(rng, depth, nvars=DOM):
    """A tree through the smart constructors or, one node in four, built by
    hand (unfolded constants, powers 0 and 1), over steep and nested
    exponentials, constants beyond float range and powers up to 400."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return var(rng.randrange(nvars))
        return const(rng.choice(WILD_CONSTS))
    tag = rng.choice(["add", "mul", "mul", "pow", "sin", "cos", "exp", "exp"])
    a = wild_tree(rng, depth - 1, nvars)
    raw = rng.random() < 0.25
    if tag == "pow":
        n = rng.choice([0, 1, 2, 3] if a[0] == "const" else [0, 1, 2, 400])
        return ("pow", a, n) if raw else pow_(a, n)
    if tag in ("add", "mul"):
        b = wild_tree(rng, depth - 1, nvars)
        return (tag, a, b) if raw else BUILD[tag](a, b)
    return BUILD[tag](a)


def wild_pairs(rng):
    f = ElemMap(DOM, 2, [wild_tree(rng, 5), wild_tree(rng, 5)])
    other = ElemMap(DOM, 2, [wild_tree(rng, 5), f.components[1]])
    yield f, f
    yield f, other
    tiny = const(Fraction(1, 10 ** 12))
    yield f, ElemMap(DOM, 2, [add(f.components[0], tiny), f.components[1]])
    yield f + other, other + f
    yield f.differential(), f.tangent().then(ElemMap(4, 2, [var(2), var(3)]))
    yield pfunctor_apply(f, 1), pfunctor_apply(other, 1)
    yield (identity(DOM, "elementary").pair(f).then(
        ElemMap(DOM + 2, 2, [mul(var(DOM), var(DOM + 1)), var(DOM)])),
           ElemMap(DOM, 2, [mul(*f.components), f.components[0]]))


def test_batched_equality_matches_a_run_per_point():
    rng = random.Random(20181)
    seen = {"equal": 0, "unequal": 0, "skipped": 0}
    for _ in range(150):
        pairs = wild_pairs(rng)
        while True:
            try:
                f, g = next(pairs)
            except StopIteration:
                break
            except (OverflowError, EngineError):
                break       # a hand-built constant power, refolded
            want = ref_equal_witness(f, g)
            assert f.equal_witness(g) == want
            seen["equal" if want[0] else "unequal"] += 1
            seen["skipped"] += sum(ref_finite(f, p) is None
                                   for p in f.sample_points())
    assert min(seen.values()) > 400, seen


def test_witness_is_a_fresh_list():
    f = ElemMap(DOM, 1, [sin(var(0))])
    g = ElemMap(DOM, 1, [cos(var(0))])
    ok, point = f.equal_witness(g)
    assert not ok and point == f.sample_points()[0]
    point[0] = 99.0
    assert f.equal_witness(g) == (False, f.sample_points()[0])
    assert expr._cloud(DOM) is expr._cloud(DOM)


def ref_partials(m, j):
    """d/dx_j of each component of m: one pass over its tape per variable,
    with a zero at every leaf but x_j.  Both each subtree and its partial
    are rebuilt through the smart constructors, so hand-built nodes fold."""
    code, roots = m.tape
    ts, ds = [], []
    for ins in code:
        tag = ins[0]
        if tag == "const" or tag == "var":
            ts.append(ins)
            ds.append(const(1 if ins == ("var", j) else 0))
            continue
        a, da = ts[ins[1]], ds[ins[1]]
        if tag == "add" or tag == "mul":
            b, db = ts[ins[2]], ds[ins[2]]
            ts.append(BUILD[tag](a, b))
            ds.append(add(da, db) if tag == "add"
                      else add(mul(da, b), mul(a, db)))
        elif tag == "pow":
            n = ins[2]
            ts.append(pow_(a, n))
            ds.append(mul(mul(const(n), pow_(a, n - 1)), da) if n
                      else const(0))
        else:
            ts.append(BUILD[tag](a))
            ds.append(mul({"sin": cos(a), "cos": neg(sin(a)),
                           "exp": exp(a)}[tag], da))
    return [ds[r] for r in roots]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 2))
def test_differential_matches_a_per_variable_reference(seed, order):
    """Hand-built trees (unfolded constants, powers 0 and 1) and the terms
    of a composite tower, whose tapes share subtrees across components."""
    rng = random.Random(seed)
    f = ElemMap(DOM, 2, [wild_tree(rng, 4), wild_tree(rng, 4)])
    g = ElemMap(2, 2, [wild_tree(rng, 3, 2), wild_tree(rng, 3, 2)])
    try:
        composite = omega(f, order).compose(omega(g, order))
    except maps._DigitLimit:
        # g's power 400 of a variable whose f component is a large
        # constant folds past the digit guard, which refuses it.
        reject()
    for m in (f, g, *composite.terms):
        want = [const(0)] * m.cod
        for j in range(m.dom):
            want = [add(total, mul(dt, var(m.dom + j)))
                    for total, dt in zip(want, ref_partials(m, j))]
        df = m.differential()
        assert list(df.components) == want
        assert format_map(df) == [ref_format(t) for t in want]


def test_differential_is_one_forward_mode_run(monkeypatch):
    runs = []
    real = expr._run
    monkeypatch.setattr(expr, "_run",
                        lambda *a: runs.append(a[0]) or real(*a))
    dom = 200_000
    df = ElemMap(dom, 1, [var(0)]).differential()
    assert len(runs) == 1
    assert df.components == (var(dom),)
    runs.clear()
    df = ElemMap(DOM, 2, [sin(var(2)), mul(var(0), var(2))]).differential()
    assert len(runs) == 1


def clear_structural_caches():
    """Forget every shared structural map and tower, with all they keep,
    so that the next use builds it again."""
    for build in (maps.canonical_map, maps.coord_slice, maps.zero_map,
                  sequences.seq_identity, sequences.seq_zero,
                  sequences.seq_proj):
        build.cache_clear()


def test_operations_build_tapes_without_walking_trees(monkeypatch):
    """Only maps made from trees are taped: after parsing, an operation on
    elementary maps builds its tape from its operands' tapes."""
    f = parse_map(["sin(x0)*x1 + exp(x2)", "x0^3", "cos(x1*x2)"], 3, 3,
                  "elementary")
    g = parse_map(["exp(x0 + x1)*x2", "sin(x2)", "x0*x1*x2"], 3, 3,
                  "elementary")
    trees_taped = []
    real = expr._tape
    monkeypatch.setattr(expr, "_tape", lambda roots: trees_taped.append(
        [r for r in roots if r[0] not in ("const", "var")]) or real(roots))
    clear_structural_caches()       # so `tangent` builds its projection
    f.then(g), f + g, f.pair(g), f.differential(), pfunctor_apply(f, 3)
    f.equal_witness(g), f.tangent()
    assert trees_taped == [[]]      # that projection: leaves only
    tower = omega(f, 2).compose(omega(g, 2))
    check_ds_primed(tower), check_ds_unprimed(tower)
    assert not any(trees_taped)     # structural maps only: leaves


def test_zero_power_keeps_the_run_per_point_rule():
    """x^0 is 1 even where x is NaN, so the batched run must remember the
    points where an instruction raised (exp(1000*x0) above x0 = 0.71),
    and must not forget the points where x became NaN without raising
    (inf - inf, from products that overflow to inf)."""
    g = ElemMap(DOM, 1, [add(var(0), const(1))])
    raised = ElemMap(DOM, 1, [("add", var(0),
                               ("pow", exp(mul(const(1000), var(0))), 0))])
    big = mul(exp(mul(const(500), var(0))), exp(mul(const(500), var(0))))
    nan = ElemMap(DOM, 1, [("add", var(0),
                            ("pow", add(big, neg(big)), 0))])
    ok, point = raised.equal_witness(g)
    assert not ok and point[0] > 0.7
    assert (ok, point) == ref_equal_witness(raised, g)
    assert nan.equal_witness(g) == ref_equal_witness(nan, g) == (True, None)
    assert any(p[0] > 0.71 for p in g.sample_points())


# Precomposing with a routing (variables and zeros) rewrites the other map's
# tape into an empty builder; every other left operand is copied first, and
# its components substituted as indices.

KINDS = ("zpair", "sumv", "sumproj0", "sumproj1", "lift", "flip")


def structural(kind, dim, k):
    """A structural map at block size dim pushed through k doublings."""
    return pfunctor_apply(canonical_map(kind, dim, "elementary"), k)


def renamings():
    """Maps whose components are variables and zeros."""
    for kind in KINDS:
        if kind != "sumv":      # (a, b + c) is not a renaming
            for k in range(4):
                yield structural(kind, 1, k)
    yield structural("flip", 2, 1)
    yield proj(2, 3, 1, "elementary")
    yield coord_slice(5, 1, 3, "elementary")
    yield pfunctor_apply(proj(1, 1, 0, "elementary"), 2)
    yield zero_map(3, 4, "elementary")
    yield ElemMap(2, 4, [var(0), var(1), var(0), const(0)])    # a diagonal


def unfolded(rng, nvars):
    """A tree that the smart constructors would fold, built by hand."""
    t = wild_tree(rng, 3, nvars)
    return rng.choice([("add", const(0), t), ("add", t, const(0)),
                       ("mul", const(1), t), ("mul", t, const(0)),
                       ("pow", t, 1), ("pow", t, 0), ("sin", ("pow", t, 1)),
                       ("add", ("mul", const(1), t), t)])


def assert_then_matches_reference(h, m):
    got = h.then(m)
    assert list(got.components) == [ref_subst(t, list(h.components))
                                     for t in m.components]
    assert_lean_tape(got)


def test_then_after_a_routing_matches_reference(monkeypatch):
    """Renamings, a diagonal among them, rewrite into an empty builder, and
    the sum and a nonzero constant after a copy of the left operand; both
    agree with the reference."""
    renamed = []
    real = expr._Builder.rewrite
    monkeypatch.setattr(expr._Builder, "rewrite", lambda b, *a: renamed.append(
        not b.code) or real(b, *a))
    rng = random.Random(20182)
    general = [structural("sumv", 1, k) for k in range(3)] + [
        ElemMap(3, 3, [var(2), const(3), var(0)])]
    for h, renames in [(h, True) for h in renamings()] + [
            (h, False) for h in general]:
        for _ in range(12):
            ts = [wild_tree(rng, 5, h.cod) for _ in range(2)]
            ts += [unfolded(rng, h.cod), mul(ts[0], add(ts[-1], ts[0])),
                   # equal to ts[0] where h zeroes or folds what they differ in
                   ref_subst(ts[0], [var(rng.randrange(h.cod))
                                     for _ in range(h.cod)]),
                   ("mul", ts[1], ts[-1]), mul(ts[1], ts[0])]
            renamed.clear()
            assert_then_matches_reference(h, ElemMap(h.cod, len(ts), ts))
            assert renamed == [renames]


def test_then_prunes_after_a_routing_only_what_folded(monkeypatch):
    """After an injective routing, a fold-free map keeps every instruction
    and its tag, so `then` prunes nothing.  A pow by 0 and a sum of two
    constants fold to new constants, keeping the instruction count but
    leaving their operands dead: those are pruned."""
    flip = structural("flip", 1, 1)
    t = sin(mul(var(0), add(var(5), const(2))))
    free = ElemMap(8, 2, [t, exp(mul(t, var(3)))])
    folded = [ElemMap(8, len(ts), ts) for ts in (
        [("pow", t, 0)], [("add", const(2), const(3))],
        [("pow", t, 0), ("add", const(2), const(3)), cos(var(7))])]
    assert expr._fold_free(free) and flip._routes() is not None
    calls, real = [], expr._pruned
    monkeypatch.setattr(expr, "_pruned", lambda *a: calls.append(a) or real(
        *a))
    for m, prunes in [(free, 0)] + [(m, 1) for m in folded]:
        calls.clear()
        got = flip.then(m)
        assert len(calls) == prunes
        assert list(got.components) == [ref_subst(c, list(flip.components))
                                        for c in m.components]
        assert_lean_tape(got)


def test_combine_prunes_only_after_a_fold(monkeypatch):
    """`pair` and `+` copy fold-free operands as they stand, so nothing in
    the result is dead and nothing is pruned.  A zero summand, a hand-built
    pow by 0 and a product with 0 fold, leaving an operand unread: those
    results are pruned, and their rows are those of their own trees taped
    afresh, even where the unread operand is a constant beyond float range,
    whose column would mark every sample point."""
    t = sin(mul(var(0), add(var(1), const(2))))
    free = ElemMap(2, 2, [t, exp(mul(t, var(1)))])
    other = ElemMap(2, 2, [cos(var(0)), mul(var(0), var(1))])
    calls, real = [], expr._pruned
    monkeypatch.setattr(expr, "_pruned", lambda *a: calls.append(a) or real(
        *a))

    def built(m, prunes):
        assert len(calls) == prunes
        calls.clear()
        assert_lean_tape(m)
        assert m._rows() == expr._float_rows(_tape(list(m.components)),
                                             expr._cloud(m.dom)[1])
        return m

    built(free.pair(other), 0)
    built(free + other, 0)
    assert built(free + zero_map(2, 2, "elementary"), 1) == free
    huge = ("mul", const(0), const(10 ** 400))
    for hand in (("pow", t, 0), add(var(1), huge)):
        m = ElemMap(2, 1, [hand])
        assert built(pfunctor_apply(m, 1), 1).components == (
            ref_subst(hand, [var(0), var(1)]),
            ref_subst(hand, [var(2), var(3)]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_then_after_a_pushed_structural_map_matches_reference(data):
    h = structural(data.draw(st.sampled_from(KINDS)),
                   data.draw(st.integers(1, 2)), data.draw(st.integers(0, 3)))
    ts = data.draw(st.lists(trees(4, h.cod), min_size=1, max_size=3))
    t = ts[0]
    ts.append(data.draw(st.sampled_from([
        ("add", const(0), t), ("mul", const(1), t), ("pow", t, 1),
        ("pow", t, 0), ("mul", ("add", t, const(0)), t)])))
    moved = ref_subst(t, [var(data.draw(st.integers(0, h.cod - 1)))
                          for _ in range(h.cod)])
    ts += [moved, sin(mul(t, ts[-1])), sin(mul(moved, ts[-1]))]
    assert_then_matches_reference(h, ElemMap(h.cod, len(ts), ts))


def test_pfunctor_apply_refolds_hand_built_trees():
    """Each shifted copy, the first included, runs the smart constructors
    where the hand-built tree skipped them."""
    rng = random.Random(20183)
    for _ in range(40):
        ts = [unfolded(rng, DOM), unfolded(rng, DOM), wild_tree(rng, 4)]
        ts.append(("mul", ts[0], ts[2]))
        h = ElemMap(DOM, len(ts), ts)
        for k in range(3):
            got = pfunctor_apply(h, k)
            assert list(got.components) == [
                ref_subst(t, [var(c * DOM + i) for i in range(DOM)])
                for c in range(1 << k) for t in ts]
            assert_lean_tape(got)


def refused_at_digit_limit(build):
    """The refusal of a constant power over the digit limit is the engine's
    error and an OverflowError, as the parser reads it."""
    with pytest.raises(EngineError) as info:
        build()
    assert isinstance(info.value, OverflowError)
    assert str(info.value) == "constant power would have more than 4300 digits"


def test_then_keeps_the_digit_limit_an_engine_error():
    power = ElemMap(1, 1, [pow_(var(0), 20000)])
    refused_at_digit_limit(lambda: pow_(const(2), 20000))
    refused_at_digit_limit(lambda: ElemMap(1, 1, [const(2)]).then(power))
    refused_at_digit_limit(     # refolded by the renaming
        lambda: identity(1, "elementary").then(
            ElemMap(1, 1, [("pow", const(2), 20000)])))
    with pytest.raises(ParseError) as info:     # with its position
        parse_component("x0 + 2^20000", 1, "elementary")
    assert info.value.position == 12


def test_doubling_keeps_the_digit_limit_an_engine_error():
    """The shifted copies of `pfunctor_apply` refold a hand-built constant
    power as `then` does, and refuse it the same way."""
    m = ElemMap(1, 1, [("pow", const(2), 20000)])
    refused_at_digit_limit(lambda: pfunctor_apply(m, 1))
    refused_at_digit_limit(m.tangent)
    m = ElemMap(2, 1, [("add", var(1), ("pow", const(Fraction(1, 3)), 10000))])
    refused_at_digit_limit(lambda: pfunctor_apply(m, 2))


def test_differential_keeps_the_digit_limit_an_engine_error():
    """The forward-mode run refolds a hand-built constant power and refuses
    it as `tangent` does."""
    m = ElemMap(1, 1, [("mul", var(0), ("pow", const(2), 20000))])
    refused_at_digit_limit(m.differential)
    refused_at_digit_limit(m.tangent)
    m = ElemMap(1, 1, [("sin", ("mul", var(0), ("pow", const(-7), 9000)))])
    refused_at_digit_limit(m.differential)


def test_checkers_build_each_pushed_structural_map_once(monkeypatch):
    """Both DS checkers, `tangent` and an `lmul` by a canonical map take a
    structural map pushed through k doublings from the map, which keeps
    what it built: one build per (map, k), none on a second run."""
    builds = []
    real = ElemMap._combine

    def combine(h, dom, parts, op=None):
        if parts[0][1] is not None:     # shifted copies: a doubling
            builds.append((h.dom, h.components, len(parts).bit_length() - 1))
        return real(h, dom, parts, op)

    monkeypatch.setattr(ElemMap, "_combine", combine)
    clear_structural_caches()
    tower = omega(parse_map(["sin(x0)*exp(x0)"], 1, 1, "elementary"), 4)
    pi0 = canonical_map("proj0", 2, "elementary")
    runs = []
    for _ in range(2):
        check_ds_primed(tower), check_ds_unprimed(tower), tower.tangent()
        tower.truncate(3).differential().lmul(pi0)
        runs.append(len(builds))
    assert builds and len(builds) == len(set(builds))
    assert runs[1] == runs[0]


# Both DS checkers build the same precompositions of a tower's terms with
# the structural maps: a term keeps each one (`maps.precompose`), and a map
# keeps its sampled rows, so the second checker reads what the first built.

def elem_tower(order):
    f = parse_map(["1/2 + 3/2*sin(x0) - 5/2*exp(x0)"], 1, 1, "elementary")
    g = parse_map(["-3/2 + 7/2*exp(x0) + 9/2*cos(x0)"], 1, 1, "elementary")
    return omega(f, order).compose(omega(g, order))


@pytest.mark.parametrize("first", [check_ds_primed, check_ds_unprimed])
def test_both_checkers_build_each_precomposition_once(first, monkeypatch):
    """On an order-4 1->1 tower each checker precomposes 52 times with a
    pushed structural map: the 16 with zpair and lift (whose zero blocks
    fold) are built, the other 36 are sampled without a tape, each once.
    Run after the other, a checker builds and samples none of them."""
    tower = elem_tower(4)
    pushed = [structural(kind, dim, k) for kind in KINDS
              for dim in (1, 2, 4, 8) for k in range(4)]
    ids = {id(h) for h in pushed}
    calls, sampled = [], []
    real, real_sampled = ElemMap.then, expr._sampled
    monkeypatch.setattr(ElemMap, "then", lambda h, m: (
        calls.append(m) if id(h) in ids else None) or real(h, m))
    monkeypatch.setattr(expr, "_sampled", lambda k, tape, summands: (
        sampled.extend((k, id(tape), g._kept["structural"], i)
                       for i, g in enumerate(summands))
        or real_sampled(k, tape, summands)))
    second = check_ds_unprimed if first is check_ds_primed else check_ds_primed
    first(tower)
    assert (len(calls), len(sampled)) == (16, 36)
    assert len(set(sampled)) == 36
    second(tower)
    assert (len(calls), len(sampled)) == (16, 36)
    check_ds_primed(tower), check_ds_unprimed(tower)
    assert (len(calls), len(sampled)) == (16, 36)


def test_both_checkers_sample_each_map_once(monkeypatch):
    tower = elem_tower(4)
    sampled = []
    real = expr._float_rows
    monkeypatch.setattr(expr, "_float_rows", lambda tape, columns: (
        sampled.append(tape) or real(tape, columns)))
    primed, unprimed = check_ds_primed(tower), check_ds_unprimed(tower)
    assert primed.passed and unprimed.passed
    assert len({id(t) for t in sampled}) == len(sampled)


@pytest.mark.parametrize("base", ["poly", "elementary"])
def test_unprimed_residuals_are_the_lmul_towers(base, monkeypatch):
    """The towers the unprimed checker compares, read off what the primed
    run kept, are the `lmul` towers and their DS.2 sums built afresh with
    no keep."""
    if base == "poly":
        tower = omega(parse_map(["x0^3*x1 - 2*x1^2", "x0*x1 + 3*x0^2"], 2, 2),
                      3)
    else:
        tower = elem_tower(3)
    compared = []
    real = axioms.seq_entry
    monkeypatch.setattr(axioms, "seq_entry", lambda *a: (
        compared.append(a[3:5]) or real(*a)))
    check_ds_primed(tower)
    assert check_ds_unprimed(tower).passed

    want, first = [], tower
    for n in range(tower.order):
        first = first.differential()
        second = first.differential() if first.order else None
        h = {kind: canonical_map(kind, tower.dom << n, base) for kind in KINDS}

        def along(m, *kinds):
            return reduce(operator.add, (PreDSeq(h[kind].dom, m.cod, tuple(
                pfunctor_apply(h[kind], j).then(t)
                for j, t in enumerate(m.terms))) for kind in kinds))

        zero = seq_zero(tower.dom << n, tower.cod, first.order, base)
        want += [(lhs, rhs) for _, _, lhs, rhs
                 in axioms._ds_laws(along, first, second, zero)]

    def same(f, g):     # `then` builds the same tape from the same operands
        return f == g if base == "poly" else f.tape == g.tape

    assert len(compared) == len(want) == 3 * 2 + 2 * 2
    for got, ref in zip(compared, want):
        for a, b in zip(got, ref):
            assert (a.dom, a.cod, a.order) == (b.dom, b.cod, b.order)
            assert all(map(same, a.terms, b.terms))


@pytest.mark.parametrize("first", [check_ds_primed, check_ds_unprimed])
def test_second_checker_adds_and_samples_nothing(first, monkeypatch):
    """Run after the other, a DS checker builds no map sum and samples no
    map: each term keeps its DS.2 sums, and a zero map is one object per
    signature, sampled once."""
    tower = elem_tower(4)
    assert first(tower).passed
    second = check_ds_unprimed if first is check_ds_primed else check_ds_primed
    work = []
    real_add, real_rows = CoordMap.__add__, expr._float_rows
    monkeypatch.setattr(CoordMap, "__add__", lambda f, g: (
        work.append("add") or real_add(f, g)))
    monkeypatch.setattr(expr, "_float_rows", lambda tape, columns: (
        work.append("rows") or real_rows(tape, columns)))
    report = second(tower)
    assert report.passed and report.entries
    assert work == []


@pytest.mark.parametrize("base", ["poly", "elementary"])
def test_a_kept_sum_stays_with_its_term(base):
    """Two terms of one signature, summed along the same structural maps,
    each keep their own DS.2 sum, under a key that names both summands."""
    texts = (["x0^3 - 2*x0"], ["3*x0^2 + x0"]) if base == "poly" else \
        (["sin(x0)*exp(x0)"], ["cos(x0) + 2*exp(x0)"])
    terms = [omega(parse_map(t, 1, 1, base), 2).terms[2] for t in texts]
    h0, h1 = (canonical_map(kind, 1, base) for kind in ("sumproj0", "sumproj1"))
    key = (("sumproj0", 1, base, 1), ("sumproj1", 1, base, 1))
    sums = [maps.precompose(h0, 1, m, h1) for m in terms]
    for m, got in zip(terms, sums):
        want = pfunctor_apply(h0, 1).then(m) + pfunctor_apply(h1, 1).then(m)
        assert got == want if base == "poly" else got.tape == want.tape
    for m, got in zip(terms, sums):
        assert m._kept[key] is got is maps.precompose(h0, 1, m, h1)


def test_kept_rows_give_the_same_witness_again():
    """A map that leaves float range on part of the cloud keeps its marked
    points: a second comparison, from the kept rows, finds the witness the
    first found and the reference finds."""
    f = ElemMap(1, 1, [exp(exp(mul(const(8), var(0))))])
    g = ElemMap(1, 1, [exp(exp(mul(const(8), var(0))))])
    h = ElemMap(1, 1, [add(exp(exp(mul(const(8), var(0)))), const(1))])
    ok, point = f.equal_witness(h)
    assert not ok
    assert (ok, point) == ref_equal_witness(f, h)
    assert "rows" in f._kept and "rows" in h._kept
    assert f.equal_witness(h) == (ok, point)
    assert h.equal_witness(f) == ref_equal_witness(h, f)
    assert any(r is None for r in f._kept["rows"])
    assert f.equal_witness(g) == ref_equal_witness(f, g) == (True, None)
    assert f.equal_witness(g) == (True, None)


def test_a_kept_precomposition_does_not_cross_bases():
    """A term keeps its precompositions per base: on either base, the
    structural map of the other base is still refused."""
    poly_tower = omega(parse_map(["x0^3 + 2*x0"], 1, 1, "poly"), 2)
    for tower, base, other in (
            (elem_tower(2).differential(), "elementary", "poly"),
            (poly_tower.differential(), "poly", "elementary")):
        for kind in ("zpair", "sumv"):      # built or deferred at its base
            kept = tower.lmul(canonical_map(kind, 1, base))
            assert tower.lmul(canonical_map(kind, 1, base)) == kept
            with pytest.raises(TagMismatch):
                tower.lmul(canonical_map(kind, 1, other))


# Precompositions that rewriting would only relabel are sampled without a
# tape (`ElemMap._defers`): the same float operations on the same
# columns as the built tape, so the rows must match it bit for bit.

OVERFLOW = load_seq(read_json(os.path.join(
    os.path.dirname(__file__), "fixtures", "corrupt_ds3_overflow.json")))
UNFOLDED = PreDSeq(1, 1, (      # hand-built: each term folds once rewritten
    ElemMap(1, 1, [("add", ("const", 0), ("var", 0))]),
    ElemMap(2, 1, [("mul", ("pow", ("var", 1), 1), ("var", 0))]),
    ElemMap(4, 1, [("const", Fraction(2))])))


@st.composite
def elem_towers(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    order, a, b = (draw(st.integers(1, hi)) for hi in (3, 2, 2))
    f, g = random_elem_map(rng, a, b), random_elem_map(rng, b, b)
    return omega(f, order).compose(omega(g, order))


def folds(m):
    """Whether rewriting m's tape folds: an add or mul with a 0 operand, a
    mul by 1, an op on two constants, a pow with exponent 0 or 1 or a
    constant base, or a constant root."""
    code, roots = m.tape
    const = [ins[0] == "const" for ins in code]
    for ins in code:
        if ins[0] in ("add", "mul"):
            x, y = (code[i][1] if const[i] else None for i in ins[1:])
            ends = (0,) if ins[0] == "add" else (0, 1)
            if (x is not None and y is not None) or x in ends or y in ends:
                return True
        elif ins[0] == "pow" and (ins[2] < 2 or const[ins[1]]):
            return True
    return any(const[r] for r in roots)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(
    trees(), leaves(DOM),
    st.integers(0, 2 ** 32).map(lambda s: unfolded(random.Random(s), DOM))),
    min_size=1, max_size=3))
@example([("mul", var(0), const(1))])
@example([("pow", const(2), 2), var(1)])
@example([sin(var(0)), const(0)])
@example([("pow", ("add", const(2), var(1)), 3), exp(const(-1))])
def test_fold_free_is_a_rewrite_that_changes_nothing(ts):
    """`_fold_free` reads from the constants what rewriting the tape on its
    own variables would do: it is True exactly when that rewrite leaves the
    instructions as they stand and no root is constant."""
    m = ElemMap(DOM, len(ts), ts)
    code, roots = m.tape
    b = expr._Builder()
    b.rewrite(m.tape, [var(j) for j in range(DOM)])
    assert expr._fold_free(m) == (b.code == list(code) and all(
        code[r][0] != "const" for r in roots))


def bits(rows):
    return [None if row is None else [struct.pack("<d", x) for x in row]
            for row in rows]


@settings(max_examples=50, deadline=None)
@given(elem_towers())
@example(OVERFLOW)
@example(UNFOLDED)
def test_sampled_precompositions_match_their_built_tapes(tower):
    """Every structural kind, and DS.2's sum, at every k that fits a term:
    a deferred precomposition's rows are `_float_rows` of its built tape,
    -0.0 and marked points included, and its tape, once read, is that
    tape.  Only zpair and lift (zero blocks) and unfolded tapes build."""
    kinds = [(kind,) for kind in maps._STRUCTURAL]
    kinds.append(("sumproj0", "sumproj1"))      # DS.2's right side
    deferred = 0
    for n, m in enumerate(tower.terms):
        for kind in kinds:
            blocks = len(maps._STRUCTURAL[kind[0]][1])
            for k in range(n + 1):
                if m.dom % (blocks << k):
                    continue
                summands = [canonical_map(c, m.dom // (blocks << k),
                                          "elementary") for c in kind]
                got = maps.precompose(summands[0], k, m, *summands[1:])
                built = maps._precomposed(k, m, summands)
                cloud = expr._cloud(got.dom)[1]
                assert bits(got._rows()) == bits(
                    expr._float_rows(built.tape, cloud))
                assert got.tape == built.tape
                sampled = hasattr(got, "_parts")
                assert sampled == (not folds(m) and not {
                    "zpair", "lift"} & set(kind))
                deferred += sampled
    assert deferred == 0 if tower is UNFOLDED else deferred > 0


def test_selftest_reaches_the_sampled_precomposition(monkeypatch):
    """`selftest`'s elementary DS family samples DS.2's right side without
    a tape, so suite ds, and no other, fails when that route drops the
    second summand."""
    real = expr._sampled
    monkeypatch.setattr(expr, "_sampled", lambda k, tape, summands: real(
        k, tape, summands[:1]))
    assert [s["suite"] for s in run_selftest(42, 1)["suites"]
            if not s["pass"]] == ["ds"]


@pytest.mark.parametrize("tag, rule", [
    ("pow", lambda b, v, x, dx, n, dy: b.apply(     # the factor n dropped
        "mul", b.apply("pow", x, n - 1), dx)),
    ("exp", lambda b, v, x, dx, y, dy: b.apply(     # doubled
        "mul", b.apply("add", v, v), dx)),
    ("cos", lambda b, v, x, dx, y, dy: b.apply(     # its sign dropped
        "mul", b.apply("sin", x), dx)),
])
def test_selftest_checks_each_derivative_rule(tag, rule, monkeypatch):
    """`selftest`'s chain suite runs each random elementary map's tape on
    dual numbers, with derivative rules of its own: a wrong rule of the
    differential fails suite chain, and no other."""
    monkeypatch.setitem(expr._PARTIALS, tag, rule)
    assert [s["suite"] for s in run_selftest(42, 4)["suites"]
            if not s["pass"]] == ["chain"]


def test_a_repeated_tower_check_builds_no_trees(monkeypatch):
    """A composite of order-4 towers and both DS checkers on it read tapes
    only: run again, the same work builds no components from a tape."""
    def op():
        tower = elem_tower(4)
        return check_ds_primed(tower).passed and check_ds_unprimed(
            tower).passed

    assert op()
    built = []
    real = ElemMap.__getattr__
    monkeypatch.setattr(ElemMap, "__getattr__", lambda m, name: (
        built.append(m) if name == "components" else None) or real(m, name))
    assert op()
    assert built == []
