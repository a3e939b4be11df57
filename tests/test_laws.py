"""Randomized law batteries stay green and are reproducible; reports read
entries in one order."""

from dseq.fixtures import random_dim, random_nonlinear_map, rng_for
from dseq.laws import (base_category_laws, omega_structure_laws,
                       tower_axiom_closure_laws, tower_identity_laws,
                       tower_naturality_laws)
from dseq.poly import Poly, PolyMap
from dseq.reports import LawReport, bool_entry
from dseq.sequences import PreDSeq

TRIALS = 10


def report_ids(report):
    return [(e.axiom, e.n, e.k, e.passed) for e in report.entries]


def assert_green(report):
    bad = report.failing()
    assert not bad, [(e.axiom, e.n, e.k) for e in bad]


def test_base_battery_poly():
    assert_green(base_category_laws(rng_for(42, "t-base"), TRIALS, "poly"))


def test_base_battery_elementary():
    assert_green(base_category_laws(rng_for(42, "t-base-elem"), TRIALS,
                                    "elementary"))


def test_tower_identity_battery():
    assert_green(tower_identity_laws(rng_for(42, "t-pre-d"), TRIALS))


def test_identity_battery_covers_every_family():
    report = tower_identity_laws(rng_for(1, "t-coverage"), 1)
    families = {e.axiom.split(".")[0] for e in report.entries}
    assert families >= {"scalar", "tangent", "diff", "functor", "category",
                        "mixed", "product", "dt", "add", "predelta",
                        "compose"}


def test_closure_battery():
    assert_green(tower_axiom_closure_laws(rng_for(42, "t-closure"), TRIALS))


def test_naturality_battery():
    assert_green(tower_naturality_laws(rng_for(42, "t-nat"), TRIALS))


def test_omega_structure_battery():
    assert_green(omega_structure_laws(rng_for(42, "t-omega"), TRIALS))


def test_batteries_are_deterministic():
    a = tower_identity_laws(rng_for(9, "t-repeat"), 3)
    b = tower_identity_laws(rng_for(9, "t-repeat"), 3)
    assert report_ids(a) == report_ids(b)


def test_a_broken_chain_rule_fails_the_same_identities(monkeypatch):
    """A compose that adds 1 to the first component of every term n >= 1
    fails exactly the identities that compose on one side only.  A
    subterm built once per trial and read by both sides of an identity
    would hide the break there."""
    real = PreDSeq.compose

    def broken(f, g):
        out = real(f, g)
        terms = [t if not n else PolyMap(t.dom, t.cod, (
            t.components[0] + Poly.constant(t.dom, 1), *t.components[1:]))
            for n, t in enumerate(out.terms)]
        return PreDSeq(out.dom, out.cod, tuple(terms))

    monkeypatch.setattr(PreDSeq, "compose", broken)
    entries = [e for seed in range(5) for e in tower_identity_laws(
        rng_for(seed, "t-broken-chain"), 2).entries]
    assert len({(e.axiom, e.k) for e in entries}) == 52
    assert {(e.axiom, e.k) for e in entries if not e.passed} == {
        ("category.assoc", 0), ("category.unit-l", 0),
        ("category.unit-r", 0), ("dt.chain", 0), ("functor.compose", 0),
        ("mixed.rmul-compose", 0), ("mixed.scalar-ident-l", 0),
        ("mixed.scalar-ident-r", 0), ("product.universal", 0),
        ("product.universal", 1)}


def test_nonlinear_fixture_keeps_a_nonlinear_monomial():
    # seed 273761 once drew a spike that cancelled to PolyMap(1->1: [-4*x0])
    for seed in range(3000):
        rng = rng_for(seed, "t-nonlinear")
        m = random_nonlinear_map(rng, random_dim(rng), random_dim(rng))
        assert max(p.degree() for p in m.components) >= 2, (seed, m)


def test_reports_read_entries_sorted_by_axiom_n_k():
    """Entries keep the order they were added in; `failing` and `to_json`
    read them sorted by (axiom, n, k)."""
    report = LawReport("order")
    for axiom, n, k in [("b", 0, 1), ("a", 2, 0), ("b", 0, 0), ("a", 1, 3)]:
        report.add(bool_entry(axiom, n, k, False))
    report.add(bool_entry("a", 0, 0, True))
    failing = [("a", 1, 3), ("a", 2, 0), ("b", 0, 0), ("b", 0, 1)]
    assert [(e.axiom, e.n, e.k) for e in report.failing()] == failing
    assert [(e["axiom"], e["n"], e["k"])
            for e in report.to_json()["entries"]] == [("a", 0, 0)] + failing
    assert report.entries[0].axiom == "b"
