"""Elementary expression trees: evaluation, derivatives, sampled equality."""

import math

import pytest

from dseq.errors import DimensionMismatch
from dseq.expr import (ELEM_TOLERANCE, ElemMap, add, const, cos, exp, mul,
                       neg, pow_, sin, var)
from dseq.maps import pfunctor_apply
from dseq.parser import parse_map


def test_constant_folding():
    assert add(const(2), const(3)) == const(5)
    assert mul(const(2), const(3)) == const(6)
    assert mul(const(0), var(0)) == const(0)
    assert mul(const(1), var(0)) == var(0)
    assert add(const(0), var(2)) == var(2)


def value(tree, point):
    return ElemMap(len(point), 1, [tree]).eval(point)[0]


def slope(tree, x):
    """d/dx of a one-variable tree at x: its differential along 1."""
    return ElemMap(1, 1, [tree]).differential().eval([x, 1.0])[0]


def test_tree_eval():
    t = add(mul(const(2), var(0)), sin(var(1)))
    assert value(t, [3.0, 0.0]) == pytest.approx(6.0)
    assert value(exp(const(0)), []) == pytest.approx(1.0)
    assert value(pow_(var(0), 3), [2.0]) == pytest.approx(8.0)


def test_tree_deriv_chain():
    # d/dx sin(x^2) = cos(x^2) * 2x
    t = sin(pow_(var(0), 2))
    for x in (0.3, -1.1, 0.9):
        assert slope(t, x) == pytest.approx(math.cos(x * x) * 2 * x)


def test_tree_deriv_product():
    t = mul(sin(var(0)), exp(var(0)))
    for x in (0.2, -0.7):
        want = math.cos(x) * math.exp(x) + math.sin(x) * math.exp(x)
        assert slope(t, x) == pytest.approx(want)


def test_deriv_wrt_absent_variable():
    # the direction of x1 (variable x3) drops out of the differential
    d = ElemMap(2, 1, [sin(var(0))]).differential()
    assert d.components == (mul(cos(var(0)), var(2)),)


def test_elem_map_eval():
    f = ElemMap(1, 2, (sin(var(0)), cos(var(0))))
    got = f.eval([0.0])
    assert got[0] == pytest.approx(0.0)
    assert got[1] == pytest.approx(1.0)


def test_differential_sums_directions():
    # D[sin(x0)] = cos(x0) * x1 on the doubled domain
    f = ElemMap(1, 1, (sin(var(0)),))
    df = f.differential()
    assert df.dom == 2
    for x, v in ((0.4, 1.0), (-0.2, 0.5)):
        assert df.eval([x, v])[0] == pytest.approx(math.cos(x) * v)


def test_double_angle_sampled_equality():
    lhs = parse_map(["sin(x0+x0)"], 1, 1, "elementary")
    rhs = parse_map(["2*sin(x0)*cos(x0)"], 1, 1, "elementary")
    assert lhs.equal(rhs, 1e-9)


def test_inequality_detected_with_witness():
    f = parse_map(["sin(x0)"], 1, 1, "elementary")
    g = parse_map(["cos(x0)"], 1, 1, "elementary")
    ok, point = f.equal_witness(g, 1e-9)
    assert not ok and point is not None


def test_sampled_equality_is_deterministic():
    f = ElemMap(2, 1, (mul(var(0), var(1)),))
    assert f.sample_points() == f.sample_points()


def test_overflow_points_are_uninformative():
    # same overflow on both sides must not produce a spurious mismatch
    big = mul(const(1000), var(0))
    f = ElemMap(1, 1, (exp(exp(big)),))
    g = ElemMap(1, 1, (exp(exp(mul(var(0), const(1000)))),))
    assert f.equal(g)


def test_signature_mismatch_raises():
    f = ElemMap(1, 1, (var(0),))
    g = ElemMap(2, 1, (var(0),))
    with pytest.raises(DimensionMismatch):
        f.equal(g)


def test_then_substitutes():
    f = ElemMap(1, 1, (pow_(var(0), 2),))
    g = ElemMap(1, 1, (sin(var(0)),))
    h = f.then(g)
    for x in (0.3, 1.2):
        assert h.eval([x])[0] == pytest.approx(math.sin(x * x))


def test_tile_acts_blockwise():
    f = ElemMap(1, 1, (exp(var(0)),))
    t = pfunctor_apply(f, 1)
    got = t.eval([0.0, 1.0])
    assert got[0] == pytest.approx(1.0)
    assert got[1] == pytest.approx(math.e)


def test_neg_is_scaling():
    f = ElemMap(1, 1, (neg(sin(var(0))),))
    assert f.eval([0.5])[0] == pytest.approx(-math.sin(0.5))


def test_default_tolerance_value():
    assert ELEM_TOLERANCE == 1e-9


def test_domain_error_points_are_uninformative():
    # exp(700*x0)^2 overflows to inf without raising for x0 > 0.51, and
    # sin(inf) raises ValueError there; the other points still decide
    u = exp(mul(const(700), var(0)))
    f = ElemMap(1, 1, (sin(mul(u, u)),))
    g = ElemMap(1, 1, (sin(mul(exp(mul(var(0), const(700))), u)),))
    assert f.equal(g)
    assert not f.equal(ElemMap(1, 1, (cos(mul(u, u)),)))


def test_no_finite_sample_point_is_not_equal():
    c = const(10 ** 300)
    f = ElemMap(1, 1, (sin(mul(mul(c, var(0)), c)),))
    ok, point = f.equal_witness(f)
    assert not ok and point == f.sample_points()[0]
