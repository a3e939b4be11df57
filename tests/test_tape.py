"""The hash-consed tape behind every elementary tree operation, checked on
random trees against plain recursive reference implementations."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dseq.expr import (ElemMap, _run, _tape, add, const, cos, exp, mul, neg,
                       pow_, sin, var)
from dseq.maps import pfunctor_apply
from dseq.parser import format_map, parse_component

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


@settings(max_examples=60, deadline=None)
@given(forests())
def test_tape_has_one_instruction_per_distinct_subtree(ts):
    code, roots = _tape(ts)
    distinct = {s for t in ts for s in subtrees(t)}
    assert len(code) == len(distinct)
    for k, ins in enumerate(code):
        if ins[0] not in ("const", "var"):
            assert all(i < k for i in ins[1:2 if ins[0] == "pow" else None])
    rebuilt = _run((code, roots), ElemMap._ops, lambda leaf: leaf)
    assert rebuilt == ts


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
