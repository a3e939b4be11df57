"""Exact polynomial arithmetic and polynomial morphisms."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dseq.errors import DimensionMismatch
from dseq.maps import CoordMap, identity, pfunctor_apply, proj, zero_map
from dseq.poly import Poly, PolyMap


def P(nvars, *items):
    return Poly(nvars, items)


def test_canonical_merges_and_drops_zeros():
    p = P(1, ((2,), Fraction(1)), ((2,), Fraction(-1)), ((1,), Fraction(3)))
    assert p == P(1, ((1,), Fraction(3)))
    assert not P(1).terms


def test_degree_and_zero():
    assert Poly.zero(2).degree() == -1
    assert Poly.constant(2, Fraction(5)).degree() == 0
    assert Poly.variable(3, 1).degree() == 1
    assert (Poly.variable(1, 0) ** 4).degree() == 4


def test_add_mul_pow():
    x = Poly.variable(1, 0)
    one = Poly.constant(1, Fraction(1))
    sq = (x + one) * (x + one)
    assert sq == x ** 2 + x.scale(Fraction(2)) + one
    assert (x ** 2) * (x ** 3) == x ** 5
    assert x ** 0 == one


def test_partial_derivative():
    """The differential's coefficient of direction j is the partial in x_j,
    and a second differential along two unit directions is a mixed one."""
    x0 = Poly.variable(2, 0)
    x1 = Poly.variable(2, 1)
    p = x0 ** 2 * x1 + x1.scale(Fraction(3))
    a0, a1, v0, v1 = (Poly.variable(4, j) for j in range(4))
    dp = PolyMap(2, 1, [p]).differential()
    assert dp.components == (
        (a0 * a1).scale(Fraction(2)) * v0
        + (a0 ** 2 + Poly.constant(4, Fraction(3))) * v1,)
    one, zero = Poly.constant(2, Fraction(1)), Poly.zero(2)
    along = PolyMap(2, 8, [x0, x1, one, zero, zero, one, zero, zero])
    assert along.then(dp.differential()) == PolyMap(2, 1,
                                                    [x0.scale(Fraction(2))])


def test_eval_exact():
    x0 = Poly.variable(2, 0)
    x1 = Poly.variable(2, 1)
    p = x0 ** 2 + x0 * x1
    v = p.eval([Fraction(1, 3), Fraction(1, 2)])
    assert v == Fraction(1, 9) + Fraction(1, 6)


def test_shift_moves_variables():
    p = Poly.variable(2, 1).shift(2, 4)
    assert p == Poly.variable(4, 3)


def test_subst_coordinate_fast_path():
    # renaming through coordinates must agree with general substitution
    x0 = Poly.variable(2, 0)
    x1 = Poly.variable(2, 1)
    p = x0 * x1 + x0 ** 2
    maps = [Poly.variable(3, 2), Poly.variable(3, 0)]
    q = p.subst(maps, 3)
    x = [Poly.variable(3, i) for i in range(3)]
    assert q == x[2] * x[0] + x[2] ** 2
    assert PolyMap(3, 2, maps).then(PolyMap(2, 1, [p])).components == (q,)


def test_then_finds_routes_once(monkeypatch):
    # a routing `then` checks its substitutes once, not once per component
    calls = []
    routes = CoordMap._routes
    monkeypatch.setattr(CoordMap, "_routes",
                        lambda *args: calls.append(args) or routes(*args))
    swap = PolyMap(2, 2, [Poly.variable(2, 1), Poly.variable(2, 0)])
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    g = PolyMap(2, 3, [x0 * x1, x0 ** 2, x1 + x0 ** 3])
    assert swap.then(g) == PolyMap(2, 3, [x1 * x0, x1 ** 2, x0 + x1 ** 3])
    assert len(calls) == 1


def test_subst_general():
    x = Poly.variable(1, 0)
    p = x ** 2
    inner = Poly.variable(1, 0) + Poly.constant(1, Fraction(1))
    q = p.subst([inner], 1)
    assert q == x ** 2 + x.scale(Fraction(2)) + Poly.constant(1, Fraction(1))


def test_subst_into_no_variables_and_from_constant_maps():
    """A polynomial in no variables substitutes to itself as a constant in
    any number of variables, and maps of degree 0 (constants and zeros) to
    the constant value at their point, by `subst` and by `then`."""
    three = P(0, ((), 3))
    for n in (0, 1, 2):
        assert three.subst([], n) == Poly.constant(n, 3)
        assert P(0).subst([], n) == Poly.zero(n)
        assert PolyMap(n, 0, []).then(PolyMap(0, 1, [three])).components == (
            Poly.constant(n, 3),)
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    p = x0 ** 2 * x1 - x1.scale(3) + Poly.constant(2, Fraction(1, 2))
    for point in ([Fraction(3, 2), Fraction(-2, 3)], [Fraction(3, 2), 0],
                  [0, 0]):
        maps = [Poly.constant(3, c) for c in point]
        want = Poly.constant(3, p.eval([Fraction(c) for c in point]))
        assert p.subst(maps, 3) == want
        assert PolyMap(3, 2, maps).then(PolyMap(2, 1, [p])).components == (
            want,)


def test_map_identity_and_proj():
    i = identity(2)
    assert i.eval([Fraction(3), Fraction(4)]) == (Fraction(3), Fraction(4))
    p0 = proj(1, 1, 0)
    p1 = proj(1, 1, 1)
    assert p0.eval([Fraction(3), Fraction(4)]) == (Fraction(3),)
    assert p1.eval([Fraction(3), Fraction(4)]) == (Fraction(4),)


def test_then_is_diagrammatic():
    # f then g means apply f first
    f = PolyMap(1, 1, (Poly.variable(1, 0) ** 2,))
    g = PolyMap(1, 1, (Poly.variable(1, 0) ** 3,))
    assert f.then(g) == PolyMap(1, 1, (Poly.variable(1, 0) ** 6,))


def test_then_signature_check():
    f = identity(2)
    g = identity(3)
    with pytest.raises(DimensionMismatch):
        f.then(g)


def test_pair_and_tile():
    f = PolyMap(1, 1, (Poly.variable(1, 0) ** 2,))
    both = f.pair(f)
    assert both.cod == 2
    assert both.eval([Fraction(2)]) == (Fraction(4), Fraction(4))
    tiled = pfunctor_apply(f, 1)
    assert tiled.dom == 2 and tiled.cod == 2
    assert tiled.eval([Fraction(2), Fraction(3)]) == (Fraction(4), Fraction(9))


def test_differential_square():
    f = PolyMap(1, 1, (Poly.variable(1, 0) ** 2,))
    df = f.differential()
    # D[x^2] = 2 x0 x1 on the doubled domain
    x0 = Poly.variable(2, 0)
    x1 = Poly.variable(2, 1)
    assert df == PolyMap(2, 1, ((x0 * x1).scale(Fraction(2)),))


def test_differential_product_rule():
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    f = PolyMap(2, 1, (x0 * x1,))
    df = f.differential()
    y = [Poly.variable(4, i) for i in range(4)]
    assert df == PolyMap(4, 1, (y[1] * y[2] + y[0] * y[3],))


def test_differential_of_constant_is_zero():
    f = PolyMap(1, 1, (Poly.constant(1, Fraction(7)),))
    assert f.differential().equal(zero_map(2, 1))


coef = st.integers(-4, 4).map(Fraction)


def univariate(coeffs):
    x = Poly.variable(1, 0)
    out = Poly.zero(1)
    for i, c in enumerate(coeffs):
        out = out + (x ** i).scale(c)
    return out


@given(st.lists(coef, min_size=1, max_size=4),
       st.lists(coef, min_size=1, max_size=4))
def test_mul_commutes(cs, ds):
    p, q = univariate(cs), univariate(ds)
    assert p * q == q * p


@given(st.lists(coef, min_size=1, max_size=4),
       st.lists(coef, min_size=1, max_size=4),
       st.lists(coef, min_size=1, max_size=4))
def test_mul_distributes(cs, ds, es):
    p, q, r = univariate(cs), univariate(ds), univariate(es)
    assert p * (q + r) == p * q + p * r


@given(st.lists(coef, min_size=1, max_size=5),
       st.lists(coef, min_size=1, max_size=5))
def test_derivative_is_leibniz(cs, ds):
    p, q = univariate(cs), univariate(ds)

    def d(r):
        return PolyMap(1, 1, [r]).differential().components[0]

    assert d(p * q) == d(p) * q.shift(0, 2) + p.shift(0, 2) * d(q)
