"""Partition combinatorics and the three-route derivative cross-check."""

from fractions import Fraction

import pytest

from dseq.comonad import omega
from dseq.errors import DimensionMismatch
from dseq.faa import (Partition, bell_number, chain_equivalence_check,
                      classical_derivative, directional_eval,
                      directional_oracle, faa_univariate,
                      nth_symbolic_derivative, partitions, pattern_derivative,
                      unit_speed_pattern)
from dseq.fixtures import random_poly_map, rng_for
from dseq.maps import compose
from dseq.parser import format_map, parse_map
from dseq.poly import Poly, PolyMap


def pm(components, dom):
    return parse_map(components, dom, len(components), "poly")


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_partition_counts():
    for n, want in enumerate(PARTITION_COUNTS):
        assert len(list(partitions(n))) == want


def test_partitions_are_valid():
    for part in partitions(6):
        assert sum(j * m for j, m in enumerate(part.multiplicities, 1)) == 6


def test_bell_numbers():
    for n, want in enumerate(BELL):
        assert bell_number(n) == want


def test_bell_equals_sum_of_coefficient_normalizations():
    # summing n!/(prod m_j! (j!)^m_j) over partitions counts set partitions
    for n in range(8):
        total = sum(p.coefficient for p in partitions(n))
        assert total == bell_number(n)


def test_partition_coefficient_example():
    # n=4, partition 4 = 1 + 1 + 2: multiplicities (2, 1, 0, 0), coefficient
    # 4! / (2! * 1!^2 * 1! * 2!^1) = 6
    p = Partition(4, (2, 1, 0, 0))
    assert p.block_count == 3
    assert p.coefficient == 6


def test_classical_derivative():
    from dseq.parser import parse_component
    p = parse_component("x0^4", 1, "poly")
    assert classical_derivative(p, 1) == parse_component("4*x0^3", 1, "poly")
    assert classical_derivative(p, 4) == Poly.constant(1, Fraction(24))
    assert classical_derivative(p, 5) == Poly.zero(1)


def test_nth_symbolic_derivative_shapes():
    f = pm(["x0^2"], 1)
    d2 = nth_symbolic_derivative(f, 2)
    assert d2.dom == 4
    assert format_map(d2) == ["2*x0*x3 + 2*x1*x2"]


def test_faa_univariate_frozen():
    inner = pm(["x0^2"], 1)
    outer = pm(["x0^3"], 1)
    assert format_map(faa_univariate(inner, outer, 2)) == ["30*x0^4"]
    # n = 0 is plain composition
    assert faa_univariate(inner, outer, 0) == compose(inner, outer)


def test_faa_linear_outer_reduces_to_chain():
    inner = pm(["x0^3"], 1)
    outer = pm(["5*x0"], 1)
    composite = compose(inner, outer).components[0]
    for n in range(1, 4):
        assert faa_univariate(inner, outer, n).components[0] == \
            classical_derivative(composite, n)


def test_unit_speed_pattern():
    pat = unit_speed_pattern(2)
    assert (pat.dom, pat.cod) == (1, 4)
    assert pat.eval([Fraction(3)]) == (3, 1, 1, 0)


def test_pattern_derivative_extracts_classical():
    f = pm(["x0^4"], 1)
    for n in range(4):
        assert pattern_derivative(f, n).components[0] == \
            classical_derivative(f.components[0], n)


def test_directional_eval_frozen():
    t = omega(pm(["x0^3"], 1), 2)
    v = directional_eval(t, 2, [Fraction(2)], [Fraction(1)])
    assert v == (Fraction(12),)


def test_directional_oracle_frozen():
    got = directional_oracle(pm(["x0^3"], 1), 2, [Fraction(2)], [Fraction(1)])
    assert got == (Fraction(12),)


def test_directional_eval_matches_oracle_multivariate():
    rng = rng_for(5, "faa-oracle")
    for _ in range(6):
        dom = rng.choice([1, 2])
        f = random_poly_map(rng, dom, rng.choice([1, 2]))
        t = omega(f, 3)
        point = [Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                 for _ in range(dom)]
        direction = [Fraction(rng.randint(-2, 2)) for _ in range(dom)]
        for n in range(4):
            assert directional_eval(t, n, point, direction) == \
                directional_oracle(f, n, point, direction)


def test_directional_eval_rejects_wrong_lengths():
    t = omega(pm(["x0*x1"], 2), 2)
    with pytest.raises(DimensionMismatch):
        directional_eval(t, 1, [Fraction(1)], [Fraction(1), Fraction(2)])
    with pytest.raises(DimensionMismatch):
        directional_eval(t, 1, [Fraction(1), Fraction(2)], [Fraction(1)])


def test_first_directional_is_jacobian_vector():
    f = pm(["x0^2"], 1)
    t = omega(f, 1)
    a, b = Fraction(3), Fraction(5)
    assert directional_eval(t, 1, [a], [b]) == (2 * a * b,)


def test_chain_equivalence_frozen():
    rep = chain_equivalence_check(pm(["x0^2"], 1), pm(["x0^3"], 1), 2)
    assert rep.passed
    axioms = {e.axiom for e in rep.entries}
    assert axioms == {"chain.tower-vs-iterated", "chain.faa-vs-pattern",
                      "chain.faa-vs-oracle"}


def test_chain_equivalence_multivariate_skips_univariate_routes():
    rep = chain_equivalence_check(pm(["x0*x1"], 2), pm(["x0^2"], 1), 2)
    assert rep.passed
    axioms = {e.axiom for e in rep.entries}
    assert axioms == {"chain.tower-vs-iterated"}


def test_faa_requires_univariate():
    from dseq.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        faa_univariate(pm(["x0*x1"], 2), pm(["x0^2"], 1), 1)
