"""Axiom checkers: the termwise and tower-level batteries, linearity,
verified stamping, and the corrupted fixtures."""

import math

import pytest

from dseq.axioms import (DSeq, check_ds_primed, check_ds_unprimed, is_linear,
                         t2)
from dseq.comonad import omega
from dseq.errors import AxiomViolation, EngineError
from dseq.fixtures import (CORRUPT_BUILDERS, corrupt_ds2, corrupt_ds3,
                           corrupt_ds3_joint, corrupt_ds4, random_poly_map,
                           rng_for)
from dseq.parser import parse_map
from dseq.sequences import PreDSeq, seq_identity, seq_proj, seq_zero


def pm(components, dom):
    return parse_map(components, dom, len(components), "poly")


def failing_families(report):
    return {e.axiom for e in report.failing()}


def test_square_tower_passes_primed():
    rep = check_ds_primed(omega(pm(["x0^2"], 1), 2))
    assert rep.passed
    # instance count: (n+1) pairs for DS.1'/2' at n < order,
    # and for DS.3'/4' at n < order - 1
    assert len(rep.entries) == 2 * (1 + 2) + 2 * 1


def test_cube_tower_passes_both_at_order_3():
    t = omega(pm(["x0^3"], 1), 3)
    assert check_ds_primed(t).passed
    assert check_ds_unprimed(t).passed


def test_multivariate_tower_passes():
    t = omega(pm(["x0*x1", "x0^2"], 2), 3)
    assert check_ds_primed(t).passed
    assert check_ds_unprimed(t).passed


def test_structural_towers_pass():
    for t in (seq_identity(2, 3), seq_zero(1, 2, 3), seq_proj(1, 1, 0, 3)):
        assert check_ds_primed(t).passed


def test_primed_entries_have_depths():
    rep = check_ds_primed(omega(pm(["x0^2"], 1), 2))
    for e in rep.entries:
        want = e.n + (1 if e.axiom in ("DS.1'", "DS.2'") else 2)
        assert e.compared_depth == want


def test_corrupted_fixtures_fail_exactly_their_axiom():
    for name, build in CORRUPT_BUILDERS.items():
        rep = check_ds_primed(build())
        assert failing_families(rep) == {name}, name
        for e in rep.failing():
            assert e.witness is not None


def test_corrupt_ds3_detected_with_witness():
    rep = check_ds_primed(corrupt_ds3())
    bad = rep.failing()
    assert bad and all(e.axiom == "DS.3'" for e in bad)
    assert any(c.terms for c in bad[0].witness.components)


def test_joint_corruption_fails_lift_and_additivity():
    # replacing the second term by x0*x1*x2*x3 breaks the embedding law and
    # also additivity in the direction argument
    fams = failing_families(check_ds_primed(corrupt_ds3_joint()))
    assert "DS.3'" in fams and "DS.2'" in fams
    assert "DS.4'" not in fams


def test_checkers_agree_per_family():
    towers = [omega(pm(["x0^2"], 1), 3), corrupt_ds2(), corrupt_ds3(),
              corrupt_ds4(), corrupt_ds3_joint()]
    for t in towers:
        primed = check_ds_primed(t)
        unprimed = check_ds_unprimed(t)
        p = {fam for fam in "1234"
             if any(not e.passed for e in primed.entries
                    if e.axiom == f"DS.{fam}'")}
        u = {fam for fam in "1234"
             if any(not e.passed for e in unprimed.entries
                    if e.axiom == f"DS.{fam}")}
        assert p == u


def test_random_towers_pass_both():
    rng = rng_for(7, "axioms-random")
    for _ in range(5):
        f = random_poly_map(rng, rng.choice([1, 2]), rng.choice([1, 2]))
        t = omega(f, 3)
        assert check_ds_primed(t).passed
        assert check_ds_unprimed(t).passed


def test_is_linear():
    assert is_linear(omega(pm(["3*x0"], 1), 2))
    assert is_linear(omega(pm(["x0 + 2*x1", "x1"], 2), 2))
    assert not is_linear(omega(pm(["x0^2"], 1), 2))
    assert not is_linear(omega(pm(["x0 + 1"], 1), 2))


def test_t2_signature_and_order():
    f = omega(pm(["x0^2"], 1), 3)
    carrier = t2(f)
    assert carrier.dom == 3 * f.dom and carrier.cod == 3 * f.cod
    assert carrier.order == 2


def test_stamp_accepts_valid():
    t = omega(pm(["x0^2"], 1), 3)
    stamped = DSeq.verify(t)
    assert stamped.seq is t
    assert stamped.order == 3
    assert ("DS.3'", 0, 0) in stamped.stamp


def test_stamp_rejects_corrupted():
    with pytest.raises(AxiomViolation) as err:
        DSeq.verify(corrupt_ds3())
    assert "DS.3'" in str(err.value)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_elementary_checks_refuse_a_tolerance_that_is_not_finite_or_is_negative(
        tol):
    """A NaN tolerance made every sampled comparison pass, and a negative
    one failed equal maps: both are refused, with the value named."""
    tower = omega(parse_map(["1/2 + 3/2*sin(x0) - 5/2*exp(x0)"], 1, 1,
                            "elementary"), 2)
    bump = parse_map(["2*x1^2*x2^2"], 4, 1, "elementary")
    broken = PreDSeq(1, 1, tower.terms[:2] + (tower.terms[2] + bump,))
    assert failing_families(check_ds_primed(broken)) == {"DS.2'"}
    assert failing_families(check_ds_unprimed(broken)) == {"DS.2"}
    sin_, cos_ = (parse_map([f"{fn}(x0)"], 1, 1, "elementary")
                  for fn in ("sin", "cos"))
    message = f"tolerance must be a finite number >= 0, got {tol!r}"
    for check in (lambda: check_ds_primed(broken, tol),
                  lambda: check_ds_unprimed(broken, tol),
                  lambda: sin_.equal_witness(cos_, tol),
                  lambda: sin_.equal_witness(sin_, tol)):
        with pytest.raises(EngineError) as info:
            check()
        assert str(info.value) == message
    assert sin_.equal_witness(sin_, 0.0) == (True, None)
    assert not sin_.equal_witness(cos_, 0.0)[0]
