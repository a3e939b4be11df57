"""Set partitions, Faa sequences and the three-route derivative cross-check."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from dseq.comonad import omega
from dseq.errors import DimensionMismatch
from dseq.faa import (chain_equivalence_check, directional_oracle,
                      faa_compose, faa_sequence, set_partitions)
from dseq.fixtures import random_poly_map, rng_for
from dseq.maps import identity, zero_map
from dseq.parser import format_map, parse_map
from dseq.poly import Poly, PolyMap
from dseq.sequences import PreDSeq


def pm(components, dom):
    return parse_map(components, dom, len(components), "poly")


def shapes(n):
    """Block-size multiplicities m[j-1] = #blocks of size j, one per set
    partition of n, counted."""
    out = Counter()
    for part in set_partitions(n):
        mult = [0] * n
        for block in part:
            mult[len(block) - 1] += 1
        out[tuple(mult)] += 1
    return out


def at_unit_directions(f):
    """A Faa term over (x, v_1..v_k) of a 1 -> 1 map with every v_i := 1:
    the classical k-th derivative, as a 1 -> 1 map."""
    return PolyMap(1, f.dom, [Poly.variable(1, 0)]
                   + [Poly.constant(1, 1)] * (f.dom - 1)).then(f)


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_partition_counts():
    # the distinct block-size shapes of set partitions are the integer
    # partitions
    for n, want in enumerate(PARTITION_COUNTS):
        assert len(shapes(n)) == want


def test_partitions_are_valid():
    seen = set()
    for part in set_partitions(6):
        assert sorted(i for block in part for i in block) == list(range(6))
        assert all(block == tuple(sorted(block)) for block in part)
        assert [block[0] for block in part] == sorted(b[0] for b in part)
        seen.add(part)
    assert len(seen) == BELL[6]


def test_bell_numbers():
    for n, want in enumerate(BELL):
        assert sum(1 for _ in set_partitions(n)) == want


def test_bell_equals_sum_of_coefficient_normalizations():
    # the set partitions of one shape number n!/(prod m_j! (j!)^m_j)
    for n in range(8):
        for mult, count in shapes(n).items():
            denom = 1
            for j, m in enumerate(mult, start=1):
                denom *= math.factorial(m) * math.factorial(j) ** m
            assert count * denom == math.factorial(n)
        assert sum(shapes(n).values()) == BELL[n]


def test_partition_coefficient_example():
    # n=4, partition 4 = 1 + 1 + 2: multiplicities (2, 1, 0, 0), coefficient
    # 4! / (2! * 1!^2 * 1! * 2!^1) = 6 set partitions of three blocks
    assert shapes(4)[(2, 1, 0, 0)] == 6


def test_classical_derivative():
    fs = faa_sequence(omega(pm(["x0^4"], 1), 5))
    assert format_map(fs[1]) == ["4*x0^3*x1"]
    assert format_map(fs[4]) == ["24*x1*x2*x3*x4"]
    assert fs[5] == zero_map(6, 1)


def test_nth_symbolic_derivative_shapes():
    d2 = omega(pm(["x0^2"], 1), 2).terms[2]
    assert d2.dom == 4
    assert format_map(d2) == ["2*x0*x3 + 2*x1*x2"]


def test_faa_univariate_frozen():
    inner = pm(["x0^2"], 1)
    outer = pm(["x0^3"], 1)
    fs, gs = faa_sequence(omega(inner, 2)), faa_sequence(omega(outer, 2))
    assert format_map(faa_compose(fs, gs, 2)) == ["30*x0^4*x1*x2"]
    # n = 0 is plain composition
    assert faa_compose(fs, gs, 0) == inner.then(outer)


def test_faa_linear_outer_reduces_to_chain():
    inner = pm(["x0^3"], 1)
    outer = pm(["5*x0"], 1)
    fs, gs = faa_sequence(omega(inner, 3)), faa_sequence(omega(outer, 3))
    composite = faa_sequence(omega(inner.then(outer), 3))
    for n in range(1, 4):
        assert faa_compose(fs, gs, n) == composite[n]
        assert faa_compose(fs, gs, n) == fs[n].then(pm(["5*x0"], 1))


def test_unit_speed_pattern():
    # on a tower whose term 2 is the identity, the Faa term is the pattern
    # itself: (x, v_1, v_2) -> blocks (x, v_1, v_2, 0)
    tower = PreDSeq(1, 4, (zero_map(1, 4), zero_map(2, 4), identity(4)))
    pat = faa_sequence(tower)[2]
    assert (pat.dom, pat.cod) == (3, 4)
    assert pat.eval([Fraction(3), Fraction(1), Fraction(1)]) == (3, 1, 1, 0)


def test_pattern_derivative_extracts_classical():
    fs = faa_sequence(omega(pm(["x0^4"], 1), 3))
    want = ["x0^4", "4*x0^3", "12*x0^2", "24*x0"]
    for n in range(4):
        assert format_map(at_unit_directions(fs[n])) == [want[n]]


def test_directional_eval_frozen():
    t = omega(pm(["x0^3"], 1), 2)
    v = faa_sequence(t)[2].eval([Fraction(2), Fraction(1), Fraction(1)])
    assert v == (Fraction(12),)


def test_directional_oracle_frozen():
    got = directional_oracle(pm(["x0^3"], 1), 2, [Fraction(1)])
    assert format_map(got) == ["6*x0"]
    assert got.eval([Fraction(2)]) == (Fraction(12),)


def test_directional_eval_matches_oracle_multivariate():
    rng = rng_for(5, "faa-oracle")
    for _ in range(6):
        dom = rng.choice([1, 2])
        f = random_poly_map(rng, dom, rng.choice([1, 2]))
        fs = faa_sequence(omega(f, 3))
        point = [Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                 for _ in range(dom)]
        direction = [Fraction(rng.randint(-2, 2)) for _ in range(dom)]
        for n in range(4):
            assert fs[n].eval(point + direction * n) == \
                directional_oracle(f, n, direction).eval(point)


def test_directional_eval_rejects_wrong_lengths():
    f1 = faa_sequence(omega(pm(["x0*x1"], 2), 2))[1]
    with pytest.raises(DimensionMismatch):
        f1.eval([Fraction(1), Fraction(1), Fraction(2)])
    with pytest.raises(DimensionMismatch):
        f1.eval([Fraction(1), Fraction(2), Fraction(1), Fraction(2),
                 Fraction(3)])


def test_first_directional_is_jacobian_vector():
    f = pm(["x0^2"], 1)
    t = omega(f, 1)
    a, b = Fraction(3), Fraction(5)
    assert faa_sequence(t)[1].eval([a, b]) == (2 * a * b,)


def test_chain_equivalence_frozen():
    rep = chain_equivalence_check(pm(["x0^2"], 1), pm(["x0^3"], 1), 2)
    assert rep.passed
    axioms = {e.axiom for e in rep.entries}
    assert axioms == {"chain.tower-vs-iterated", "chain.faa-vs-pattern",
                      "chain.faa-vs-oracle"}


def test_chain_equivalence_multivariate_runs_every_route():
    rep = chain_equivalence_check(pm(["x0*x1"], 2), pm(["x0^2"], 1), 2)
    assert rep.passed
    axioms = {e.axiom for e in rep.entries}
    assert axioms == {"chain.tower-vs-iterated", "chain.faa-vs-pattern",
                      "chain.faa-vs-oracle"}


def test_faa_compose_requires_composable_signatures():
    fs = faa_sequence(omega(pm(["x0*x1"], 2), 1))
    with pytest.raises(DimensionMismatch):
        faa_compose(fs, fs, 1)


def test_faa_compose_matches_tower_compose():
    # the paper's comparison: composing Faa sequences agrees with composing
    # towers through the tangent functor, exactly, on random d -> e -> c
    rng = rng_for(7, "faa-compose")
    for d, e, c in itertools.product((1, 2), repeat=3):
        f, g = random_poly_map(rng, d, e), random_poly_map(rng, e, c)
        tf, tg = omega(f, 4), omega(g, 4)
        fs, gs = faa_sequence(tf), faa_sequence(tg)
        composite = faa_sequence(tf.compose(tg))
        for n in range(5):
            assert faa_compose(fs, gs, n) == composite[n]
