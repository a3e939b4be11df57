"""Base-category helpers: canonical block maps, tangent, block tiling."""

from fractions import Fraction

import pytest

from dseq import maps, poly
from dseq.axioms import check_ds_primed, check_ds_unprimed
from dseq.comonad import omega
from dseq.errors import DimensionMismatch, TagMismatch
from dseq.maps import (CoordMap, canonical_map, coord_slice, identity,
                       map_class, pfunctor_apply, proj, zero_map)
from dseq.parser import format_map, parse_map
from dseq.poly import Poly
from dseq.sequences import PreDSeq


def ev(m, *xs):
    return m.eval([Fraction(x) for x in xs])


def test_zpair_appends_zero_block():
    z = canonical_map("zpair", 2)
    assert (z.dom, z.cod) == (2, 4)
    assert ev(z, 1, 2) == (1, 2, 0, 0)


def test_sumv_adds_last_two_blocks():
    s = canonical_map("sumv", 1)
    assert (s.dom, s.cod) == (3, 2)
    assert ev(s, 5, 7, 11) == (5, 18)


def test_sum_projections():
    p0 = canonical_map("sumproj0", 1)
    p1 = canonical_map("sumproj1", 1)
    assert ev(p0, 5, 7, 11) == (5, 7)
    assert ev(p1, 5, 7, 11) == (5, 11)


def test_lift_embeds_with_zero_middle():
    l = canonical_map("lift", 1)
    assert (l.dom, l.cod) == (2, 4)
    assert ev(l, 3, 4) == (3, 0, 0, 4)


def test_flip_swaps_middle_blocks():
    f = canonical_map("flip", 2)
    assert (f.dom, f.cod) == (8, 8)
    assert ev(f, 1, 2, 3, 4, 5, 6, 7, 8) == (1, 2, 5, 6, 3, 4, 7, 8)


def test_canonical_maps_unknown_kind():
    with pytest.raises(ValueError):
        canonical_map("nope", 1)


def test_pfunctor_tiles_blocks():
    # one doubling of the first projection over (1,1): keep blocks 0 and 2
    h = proj(1, 1, 0)
    tiled = pfunctor_apply(h, 1)
    assert (tiled.dom, tiled.cod) == (4, 2)
    assert ev(tiled, 9, 8, 7, 6) == (9, 7)


def test_pfunctor_zero_doublings_is_identity_functor():
    h = proj(1, 1, 0)
    assert pfunctor_apply(h, 0) == h


def test_tangent_map_pairs_value_and_derivative():
    f = parse_map(["x0^2"], 1, 1, "poly")
    tf = f.tangent()
    assert (tf.dom, tf.cod) == (2, 2)
    assert ev(tf, 3, 5) == (9, 30)


def test_compose_direction():
    f = parse_map(["x0 + 1"], 1, 1, "poly")
    g = parse_map(["x0^2"], 1, 1, "poly")
    assert ev(f.then(g), 2) == (9,)
    assert ev(g.then(f), 2) == (5,)


def test_identity_and_zero():
    assert ev(identity(3), 1, 2, 3) == (1, 2, 3)
    assert ev(zero_map(2, 2), 5, 6) == (0, 0)


def test_proj_slices_blocks():
    p = proj(2, 3, 1)
    assert (p.dom, p.cod) == (5, 3)
    assert ev(p, 1, 2, 3, 4, 5) == (3, 4, 5)


def test_elem_canonical_maps_match_poly_semantics():
    z = canonical_map("zpair", 1, "elementary")
    assert z.eval([2.0]) == pytest.approx((2.0, 0.0))
    fl = canonical_map("flip", 1, "elementary")
    assert fl.eval([1.0, 2.0, 3.0, 4.0]) == pytest.approx((1.0, 3.0, 2.0, 4.0))


@pytest.mark.parametrize("kind", ["zpair", "sumv", "sumproj0", "sumproj1",
                                  "lift", "flip", "proj0"])
def test_routes_agree_on_both_bases(kind):
    """Every pushed structural map but the sum's is a routing, read the same
    off both bases: component i is variable routes[i], or zero where -1."""
    for dim in (1, 2):
        for k in range(4):
            maps = {base: pfunctor_apply(canonical_map(kind, dim, base), k)
                    for base in ("poly", "elementary")}
            routes = maps["poly"]._routes()
            assert maps["elementary"]._routes() == routes
            assert (routes is None) == (kind == "sumv")
            for base, m in maps.items():
                cls = map_class(base)
                assert routes is None or list(m.components) == [
                    cls._variable(m.dom, r) if r >= 0
                    else cls._constant(m.dom, 0) for r in routes]


def hand_built(kind, d, base):
    """The structural block maps as they were spelled one by one, kept as
    the reference for the table in `maps`."""
    def s(total, start, size):
        return coord_slice(total, start, size, base)

    if kind == "proj0":
        return proj(d, d, 0, base)
    if kind == "zpair":
        return identity(d, base).pair(zero_map(d, d, base))
    if kind == "sumv":
        return s(3 * d, 0, d).pair(s(3 * d, d, d) + s(3 * d, 2 * d, d))
    if kind == "sumproj0":
        return s(3 * d, 0, 2 * d)
    if kind == "sumproj1":
        return s(3 * d, 0, d).pair(s(3 * d, 2 * d, d))
    if kind == "lift":
        return s(2 * d, 0, d).pair(zero_map(2 * d, d, base)).pair(
            zero_map(2 * d, d, base).pair(s(2 * d, d, d)))
    assert kind == "flip"
    out = s(4 * d, 0, d)
    for i in (2, 1, 3):
        out = out.pair(s(4 * d, i * d, d))
    return out


@pytest.mark.parametrize("kind", ["zpair", "sumv", "sumproj0", "sumproj1",
                                  "lift", "flip", "proj0"])
@pytest.mark.parametrize("base", ["poly", "elementary"])
def test_table_builds_the_hand_built_structural_maps(kind, base):
    for dim in (1, 2, 3):
        got, want = canonical_map(kind, dim, base), hand_built(kind, dim, base)
        assert type(got) is type(want)
        assert (got.dom, got.cod) == (want.dom, want.cod)
        assert got.components == want.components
        assert format_map(got) == format_map(want)


def test_routes_are_scanned_once_per_map(monkeypatch):
    """A map keeps its routes: repeated `then`s with one left operand scan
    its components once, on both bases, and a polynomial routing works out
    its shape once."""
    found = {}
    for base in ("poly", "elementary"):
        cls = map_class(base)
        scanned = []
        real = cls._route
        monkeypatch.setattr(cls, "_route", staticmethod(
            lambda c, real=real, scanned=scanned: scanned.append(c)
            or real(c)))
        h = pfunctor_apply(hand_built("lift", 1, base), 2)
        f = parse_map(["x0*x3 + x1", "x2^2"], h.cod, 2, base)
        for _ in range(3):
            h.then(f)
        assert len(scanned) == h.cod
        found[base] = h._routes()
    assert found["poly"] == found["elementary"] is not None
    shaped = []
    monkeypatch.setattr(poly, "_routing", lambda *args, real=poly._routing:
                        shaped.append(args) or real(*args))
    h = pfunctor_apply(hand_built("flip", 1, "poly"), 1)
    f = parse_map(["x0*x3 + x1", "x2^2"], h.cod, 2, "poly")
    for _ in range(3):
        h.then(f)
    assert len(shaped) == 1


def kept_shape(owner, key):
    """The entry of the list of kept state in `maps` that a key of owner's
    `_kept` table is, or None."""
    if isinstance(owner, PreDSeq):
        return "tangent" if key == "tangent" else None
    named = {"poly": ("routes", "routing", "structural"),
             "elementary": ("routes", "rows", "foldfree",
                            "structural")}[owner.base]
    if type(key) is str:
        return key if key in named else None
    if type(key) is int:
        return "doubling" if key >= 0 else None
    if type(key) is tuple and len(key) in (1, 2) and all(
            type(s) is tuple and len(s) == 4 and s[0] in maps._STRUCTURAL
            and type(s[1]) is int and s[1] > 0 and s[2] == owner.base
            and type(s[3]) is int and s[3] >= 0 for s in key):
        return "precomposition" if len(key) == 1 else "sum"
    return None


@pytest.mark.parametrize("base", ["poly", "elementary"])
def test_every_kept_key_has_a_documented_shape(base):
    """Composing towers and running both DS checkers on them keeps state
    only under the keys the module docstring of `maps` lists, on the tower
    terms, the tangents and the pushed structural maps alike."""
    dom, order = (2, 3) if base == "poly" else (1, 3)
    texts = ((["x0^2*x1 + x1", "x0 - x1^2"], ["x0*x1", "x0^3 - x1"])
             if base == "poly" else (["sin(x0)*exp(x0)"], ["cos(x0) + x0^2"]))
    f, g = (omega(parse_map(t, dom, dom, base), order) for t in texts)
    composite = f.compose(g)
    for tower in (f, composite):
        assert check_ds_primed(tower).passed
        assert check_ds_unprimed(tower).passed
    stack = [f, g, composite] + [canonical_map(kind, dom << j, base)
                                 for kind in maps._STRUCTURAL
                                 for j in range(order + 1)]
    seen, shapes = set(), set()
    while stack:
        owner = stack.pop()
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        if isinstance(owner, PreDSeq):
            stack.extend(owner.terms)
        for key, value in owner._kept.items():
            shape = kept_shape(owner, key)
            assert shape is not None, (owner, key)
            shapes.add(shape)
            if isinstance(value, (CoordMap, PreDSeq)):
                stack.append(value)
    assert shapes == {"tangent", "doubling", "precomposition", "sum",
                      "routes", "structural"} | (
        {"routing"} if base == "poly" else {"rows", "foldfree"})


def test_map_class_rejects_unknown_tag():
    with pytest.raises(TagMismatch):
        map_class("banach")


def test_mixed_bases_cannot_compose():
    f = parse_map(["x0"], 1, 1, "poly")
    g = parse_map(["sin(x0)"], 1, 1, "elementary")
    with pytest.raises(TagMismatch):
        f.then(g)


def test_pair_dimension_check():
    f = identity(2)
    g = identity(3)
    with pytest.raises(DimensionMismatch):
        f.pair(g)


def test_differential_is_linear_in_direction():
    # joint derivative evaluated at twice the direction doubles the value
    f = parse_map(["x0^3 + x0*x1"], 2, 1, "poly")
    df = f.differential()
    base = ev(df, 2, 3, 1, 5)
    twice = ev(df, 2, 3, 2, 10)
    assert tuple(2 * v for v in base) == twice
