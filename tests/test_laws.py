"""Randomized law batteries stay green and are reproducible."""

from dseq.fixtures import random_dim, random_nonlinear_map, rng_for
from dseq.laws import (base_category_laws, omega_structure_laws,
                       tower_axiom_closure_laws, tower_identity_laws,
                       tower_naturality_laws)

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


def test_nonlinear_fixture_keeps_a_nonlinear_monomial():
    # seed 273761 once drew a spike that cancelled to PolyMap(1->1: [-4*x0])
    for seed in range(3000):
        rng = rng_for(seed, "t-nonlinear")
        m = random_nonlinear_map(rng, random_dim(rng), random_dim(rng))
        assert max(p.degree() for p in m.components) >= 2, (seed, m)
