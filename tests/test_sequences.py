"""Derivative towers: construction, scalar actions, tangent, composition."""

import operator
from fractions import Fraction

import pytest

from dseq.comonad import omega
from dseq.errors import (DimensionMismatch, EngineError, InsufficientOrder,
                         TagMismatch)
from dseq.jsonio import dump_seq, to_canonical_json
from dseq.parser import format_map, parse_map
from dseq.sequences import (PreDSeq, seq_identity, seq_product, seq_proj,
                            seq_zero)


def pm(components, dom):
    return parse_map(components, dom, len(components), "poly")


def tower(texts_by_level, dom):
    terms = [pm(level, dom * (1 << n)) for n, level in enumerate(texts_by_level)]
    return PreDSeq(dom, len(texts_by_level[0]), tuple(terms))


def shown(seq):
    return [format_map(t) for t in seq.terms]


def test_term_signatures_validated():
    good = tower([["x0^2"], ["2*x0*x1"]], 1)
    assert good.order == 1
    # term 1 must live on the doubled domain
    with pytest.raises(DimensionMismatch):
        PreDSeq(1, 1, (pm(["x0^2"], 1), pm(["x0"], 1)))


def test_mixed_bases_rejected():
    p = pm(["x0"], 1)
    e = parse_map(["sin(x0)"], 1, 1, "elementary")
    with pytest.raises(TagMismatch):
        PreDSeq(1, 1, (p, e.differential()))


def test_identity_tower_selects_all_ones_block():
    i = seq_identity(1, 2)
    assert shown(i) == [["x0"], ["x1"], ["x3"]]
    i2 = seq_identity(2, 1)
    assert shown(i2) == [["x0", "x1"], ["x2", "x3"]]


def test_proj_tower():
    p = seq_proj(1, 1, 1, 1)
    assert shown(p) == [["x1"], ["x3"]]


def test_zero_and_terminal():
    z = seq_zero(2, 1, 1)
    assert shown(z) == [["0"], ["0"]]
    t = seq_zero(2, 0, 1)
    assert t.cod == 0 and t.order == 1


def test_differential_is_shift():
    f = omega(pm(["x0^2"], 1), 2)
    d = f.differential()
    assert d.order == 1
    assert shown(d) == [["2*x0*x1"], ["2*x0*x3 + 2*x1*x2"]]
    with pytest.raises(InsufficientOrder):
        seq_zero(1, 1, 0).differential()


def test_tangent_frozen_example():
    f = omega(pm(["x0^2"], 1), 1)
    tf = f.tangent()
    assert tf.order == 0
    assert shown(tf) == [["x0^2", "2*x0*x1"]]


def test_tangent_costs_one_order():
    f = omega(pm(["x0^2"], 1), 3)
    assert f.tangent().order == 2
    with pytest.raises(InsufficientOrder):
        seq_identity(1, 0).tangent()


def test_tangent_is_kept():
    t = omega(pm(["x0^2*x1", "x1^3 - x0"], 2), 3)
    assert t.tangent() is t.tangent()
    assert t.tangent().tangent() is t.tangent().tangent()


def test_compose_reuses_the_left_towers_tangents(monkeypatch):
    """Term n of a composite runs T^n f of the left tower f alone, so a
    second compose with the same left tower builds no tangent again."""
    f = omega(pm(["x0^2*x1 + x1", "x0 - x1^2"], 2), 3)
    g1 = omega(pm(["x0*x1", "x0^3"], 2), 3)
    g2 = omega(pm(["x1^2 - x0", "2*x0*x1"], 2), 3)
    calls = []
    real = PreDSeq.lmul
    monkeypatch.setattr(PreDSeq, "lmul",
                        lambda self, *hs: calls.append(1) or real(self, *hs))
    first = f.compose(g1)
    assert calls
    calls.clear()
    second = f.compose(g2)
    assert not calls
    assert first == omega(f.terms[0].then(g1.terms[0]), 3)
    assert second == omega(f.terms[0].then(g2.terms[0]), 3)


def test_a_kept_tangent_is_invisible():
    """A tower that keeps its tangent equals, hashes and serializes like a
    fresh tower of the same terms."""
    t = omega(pm(["x0^2*x1", "x1^3 - x0"], 2), 2)
    t.tangent()
    fresh = PreDSeq(t.dom, t.cod, t.terms)
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert (to_canonical_json(dump_seq(t))
            == to_canonical_json(dump_seq(fresh)))


def test_lscalar_tiles_base_map():
    h = pm(["2*x0"], 1)
    f = seq_identity(1, 1).lmul(h)
    assert shown(f) == [["2*x0"], ["2*x1"]]


def test_rscalar_postcomposes():
    k = pm(["x0^2"], 1)
    f = seq_identity(1, 1).rmul(k)
    assert shown(f) == [["x0^2"], ["x1^2"]]


def test_compose_chain_rule_frozen():
    f = omega(pm(["x0^2"], 1), 1)
    g = omega(pm(["x0^3"], 1), 1)
    fg = f.compose(g)
    assert shown(fg) == [["x0^6"], ["6*x0^5*x1"]]


def test_compose_is_the_tower_of_the_composite_at_order_5():
    """Every term of a dense 2->2 pair's order-5 composite, each of which
    substitutes lower terms into its direction monomials, is the term of
    the composite map's own tower."""
    f = pm(["x0^3 + x0*x1^2 - 2*x1 + 1", "x1^3 - x0^2*x1 + 1/2*x0"], 2)
    g = pm(["x0^2*x1 + x1^2 - x0 + 2", "x0^3 - 3/2*x0*x1^2 + x1"], 2)
    assert omega(f, 5).compose(omega(g, 5)).terms == omega(f.then(g), 5).terms


def test_compose_takes_min_order():
    f = omega(pm(["x0^2"], 1), 3)
    g = omega(pm(["x0^3"], 1), 1)
    assert f.compose(g).order == 1
    assert g.compose(f).order == 1


def test_compose_dimension_check():
    f = omega(pm(["x0", "x0"], 1), 1)
    g = omega(pm(["x0^2"], 1), 1)
    with pytest.raises(DimensionMismatch):
        f.compose(g)


def sin_tower():
    return omega(parse_map(["sin(x0)"], 1, 1, "elementary"), 2)


# operation -> (run, operand of the other base, operand of the same base
# whose signature does not fit a 1->1 poly tower)
TOWER_OPS = {
    "lmul": (PreDSeq.lmul, lambda: sin_tower().terms[0],
             lambda: pm(["x0", "x0"], 1)),
    "rmul": (PreDSeq.rmul, lambda: sin_tower().terms[0],
             lambda: pm(["x0*x1"], 2)),
    "compose": (PreDSeq.compose, sin_tower,
                lambda: omega(pm(["x0*x1"], 2), 2)),
    "pair": (PreDSeq.pair, sin_tower, lambda: omega(pm(["x0*x1"], 2), 2)),
    "+": (operator.add, sin_tower, lambda: omega(pm(["x0", "x0"], 1), 2)),
}


@pytest.mark.parametrize("op", sorted(TOWER_OPS))
def test_tower_operation_rejects_mixed_bases(op):
    run, other_base, _ = TOWER_OPS[op]
    with pytest.raises(TagMismatch):
        run(omega(pm(["x0^2"], 1), 2), other_base())


@pytest.mark.parametrize("op", sorted(TOWER_OPS))
def test_tower_operation_rejects_mismatched_signatures(op):
    run, _, misfit = TOWER_OPS[op]
    with pytest.raises(DimensionMismatch):
        run(omega(pm(["x0^2"], 1), 2), misfit())


def test_sum_is_termwise():
    f = omega(pm(["x0^2"], 1), 2)
    g = omega(pm(["x0^3"], 1), 2)
    assert (f + g).terms == omega(pm(["x0^2 + x0^3"], 1), 2).terms


def test_pair_is_termwise():
    f = omega(pm(["x0^2"], 1), 2)
    g = omega(pm(["x0^3"], 1), 2)
    fg = f.pair(g)
    assert fg.cod == 2
    assert fg.terms == omega(pm(["x0^2", "x0^3"], 1), 2).terms


def test_product_of_towers():
    f = omega(pm(["x0^2"], 1), 2)
    g = omega(pm(["x0^3"], 1), 2)
    prod = seq_product([f, g])
    assert prod.dom == 2 and prod.cod == 2
    # each factor acts on its own block of every doubled level
    direct = omega(pm(["x0^2", "x1^3"], 2), 2)
    assert prod.terms == direct.terms


def test_eq_requires_same_order():
    f = omega(pm(["x0^2"], 1), 2)
    assert f.terms != f.truncate(1).terms
    assert f.truncate(1).terms == f.truncate(1).terms


def test_truncate():
    f = omega(pm(["x0^2"], 1), 3)
    assert f.truncate(3) is f
    assert f.truncate(0).order == 0
    with pytest.raises(InsufficientOrder):
        f.truncate(4)


def test_term_accessor_bounds():
    f = omega(pm(["x0^2"], 1), 1)
    assert f.term(1) is f.terms[1]
    with pytest.raises(InsufficientOrder):
        f.term(2)


def test_hand_built_tower_equals_derived():
    by_hand = tower([["x0^2"], ["2*x0*x1"], ["2*x1*x2 + 2*x0*x3"]], 1)
    assert by_hand.terms == omega(pm(["x0^2"], 1), 2).terms


def test_second_derivative_of_product_map():
    f = omega(pm(["x0*x1"], 2), 1)
    assert shown(f.differential()) == [["x0*x3 + x1*x2"]]


def test_tower_without_terms_is_bad_input():
    with pytest.raises(EngineError):
        PreDSeq(1, 1, ())
