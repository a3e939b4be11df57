"""The hash-consed tape behind every elementary tree operation, checked on
random trees against plain recursive reference implementations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dseq import expr
from dseq.axioms import check_ds_primed, check_ds_unprimed
from dseq.comonad import omega
from dseq.expr import (ElemMap, _float_values, _run, _tape, add, const, cos,
                       exp, mul, neg, pow_, sin, var)
from dseq.maps import identity, pfunctor_apply, zero_map
from dseq.parser import format_map, parse_component, parse_map

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
leaves = st.one_of(
    st.builds(var, st.integers(0, DOM - 1)),
    st.builds(const, st.sampled_from([2, -1, Fraction(-3, 4), 1, 0])))


BUILD = {"add": add, "mul": mul, "sin": sin, "cos": cos, "exp": exp}


@st.composite
def trees(draw, depth=5):
    tag = draw(st.sampled_from(["leaf", "add", "mul", "pow", "sin", "cos",
                                "exp", "add", "mul"]))
    if depth == 0 or tag == "leaf":
        return draw(leaves)
    a = draw(trees(depth - 1))
    if tag == "pow":
        return pow_(a, draw(st.sampled_from([2, 3, 1, 0])))
    if tag in ("add", "mul"):
        return BUILD[tag](a, draw(trees(depth - 1).filter(
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
    code, roots, nodes = m.tape
    distinct = {s for t in m.components for s in subtrees(t)}
    assert len(code) == len(set(code)) == len(distinct)
    assert len(code) == len(_tape(list(m.components))[0])
    live = set(roots)
    for k in range(len(code) - 1, -1, -1):
        assert all(i < k for i in operands(code[k]))
        if k in live:
            live.update(operands(code[k]))
    assert live == set(range(len(code)))
    assert [nodes[r] for r in roots] == list(m.components)
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


def wild_tree(rng, depth):
    """A tree through the smart constructors or, one node in four, built by
    hand (unfolded constants, powers 0 and 1), over steep and nested
    exponentials, constants beyond float range and powers up to 400."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return var(rng.randrange(DOM))
        return const(rng.choice(WILD_CONSTS))
    tag = rng.choice(["add", "mul", "mul", "pow", "sin", "cos", "exp", "exp"])
    a = wild_tree(rng, depth - 1)
    raw = rng.random() < 0.25
    if tag == "pow":
        n = rng.choice([0, 1, 2, 3] if a[0] == "const" else [0, 1, 2, 400])
        return ("pow", a, n) if raw else pow_(a, n)
    if tag in ("add", "mul"):
        b = wild_tree(rng, depth - 1)
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
    if not any(s[0] == "pow" and s[2] == 0
               for t in f.components for s in subtrees(t)):
        # (the derivative rule for powers needs n >= 1)
        yield f.differential(), f.tangent().then(
            ElemMap(4, 2, [var(2), var(3)]))
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
            except OverflowError:   # a hand-built constant power, refolded
                break
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


def test_differential_runs_one_direction_per_variable_read(monkeypatch):
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
    assert len(runs) == 2


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
    f.then(g), f + g, f.pair(g), f.differential(), pfunctor_apply(f, 3)
    f.equal_witness(g), f.tangent()
    assert trees_taped == [[]]      # the projection that `tangent` builds
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
