"""Tower lifting, the extraction/duplication structure on towers, and the
differential-combinator axioms on verified towers."""

import pytest

from dseq.axioms import DSeq, check_ds_primed
from dseq.comonad import (check_cd_axioms, check_coalgebra,
                          check_comonad_laws, comult, omega)
from dseq.errors import AxiomViolation, InsufficientOrder
from dseq.fixtures import corrupt_ds3, random_tower, rng_for
from dseq.parser import format_map, parse_map


def pm(components, dom):
    return parse_map(components, dom, len(components), "poly")


def test_omega_frozen_example():
    t = omega(pm(["x0^2"], 1), 2)
    assert [format_map(f) for f in t.terms] == [
        ["x0^2"], ["2*x0*x1"], ["2*x0*x3 + 2*x1*x2"]]


def test_omega_order_zero():
    f = pm(["x0*x1"], 2)
    t = omega(f, 0)
    assert t.order == 0 and t.terms[0] is f


def test_counit_extracts_term_zero():
    f = pm(["x0^3"], 1)
    assert omega(f, 2).terms[0] is f


def test_comult_entries_are_shifted_terms():
    t = omega(pm(["x0^2"], 1), 2)
    rows = comult(t)
    # entry (n, m) is the (n+m)-th term of the source
    assert rows[1].terms[1] is t.terms[2]
    assert rows[0].terms[2] is t.terms[2]
    assert format_map(rows[1].terms[1]) == ["2*x0*x3 + 2*x1*x2"]


def test_comult_rows_are_shifts():
    t = omega(pm(["x0^3"], 1), 3)
    row1 = comult(t)[1]
    assert row1.terms == t.differential().terms


def test_triangle_bounds():
    t = omega(pm(["x0^2"], 1), 2)
    rows = comult(t)
    assert len(rows) == 3
    with pytest.raises(InsufficientOrder):
        rows[2].term(1)
    with pytest.raises(InsufficientOrder):
        rows[2].differential()


def test_comult_is_the_tuple_of_shifts():
    # row n is the n-fold shift, a view onto the source's own term objects
    for t in (omega(pm(["x0^2"], 1), 2), omega(pm(["x0^3 + x0*x1"], 2), 3)):
        rows = comult(t)
        assert len(rows) == t.order + 1
        assert rows[0] is t and rows[1] == t.differential()
        for n, row in enumerate(rows):
            assert (row.dom, row.cod, row.order) == (t.dom << n, t.cod,
                                                     t.order - n)
            for m in range(row.order + 1):
                assert row.terms[m] is t.terms[n + m]
    assert format_map(comult(omega(pm(["x0^2"], 1), 2))[1].terms[1]) == [
        "2*x0*x3 + 2*x1*x2"]


def test_comonad_laws_on_arbitrary_towers():
    # the three laws need no axioms from the tower at all
    rng = rng_for(11, "comonad-arbitrary")
    for _ in range(5):
        t = random_tower(rng, rng.choice([1, 2]), rng.choice([1, 2]), 3)
        assert check_comonad_laws(t).passed


def test_comonad_laws_on_corrupted_tower():
    assert check_comonad_laws(corrupt_ds3()).passed


def test_coalgebra_laws():
    rep = check_coalgebra(pm(["x0^2"], 1), 3)
    assert rep.passed
    rep = check_coalgebra(pm(["x0*x1", "x1^2"], 2), 2)
    assert rep.passed


def test_cd_axioms_pass_on_omega_closure():
    f = DSeq.verify(omega(pm(["x0^2"], 1), 3))
    g = DSeq.verify(omega(pm(["x0^3"], 1), 3))
    h = DSeq.verify(omega(pm(["x0 + x0^2"], 1), 3))
    rep = check_cd_axioms([f, g, (f, g), (g, h)])
    assert rep.passed
    seen = {e.axiom for e in rep.entries}
    for ax in ("CD.1", "CD.2", "CD.3", "CD.4", "CD.5", "CD.6", "CD.7",
               "CD.4-implied"):
        assert ax in seen, ax


def test_cd_multivariate_pair():
    f = DSeq.verify(omega(pm(["x0*x1", "x0^2"], 2), 3))
    g = DSeq.verify(omega(pm(["x0 + x1^2"], 2), 3))
    assert check_cd_axioms([f, (f, g)]).passed


def test_cd_requires_stamped_towers():
    raw = omega(pm(["x0^2"], 1), 3)
    with pytest.raises(AxiomViolation):
        check_cd_axioms([raw])


def test_cd_requires_order_three():
    f = DSeq.verify(omega(pm(["x0^2"], 1), 2))
    with pytest.raises(InsufficientOrder):
        check_cd_axioms([f])


def test_delta_rows_of_verified_tower_stay_verified():
    t = omega(pm(["x0^3 + x0*x1"], 2), 3)
    rows = comult(t)
    for n in range(1, 4):
        assert check_ds_primed(rows[n]).passed
