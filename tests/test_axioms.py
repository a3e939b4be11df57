"""Axiom checkers: the termwise and tower-level batteries, linearity,
verified stamping, and the corrupted fixtures."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dseq import maps, poly
from dseq.axioms import (DSeq, check_ds_primed, check_ds_unprimed, is_linear,
                         t2)
from dseq.comonad import omega
from dseq.errors import AxiomViolation, EngineError
from dseq.fixtures import (CORRUPT_BUILDERS, corrupt_ds1, corrupt_ds2,
                           corrupt_ds3, corrupt_ds3_joint, corrupt_ds4,
                           random_fraction, random_poly_map, random_tower,
                           rng_for)
from dseq.maps import _precomposed, canonical_map, zero_map
from dseq.parser import parse_map
from dseq.poly import Poly, PolyMap
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


def test_corrupt_ds1_fails_vanishing_and_additivity_in_both_checkers():
    """A direction-free monomial breaks DS.1 and, having degree 0 in the
    directions, DS.2 too; each failure keeps its difference map."""
    primed, unprimed = (check(corrupt_ds1())
                        for check in (check_ds_primed, check_ds_unprimed))
    assert failing_families(primed) == {"DS.1'", "DS.2'"}
    assert failing_families(unprimed) == {"DS.1", "DS.2"}
    assert [str(e.witness) for e in primed.failing()] == [
        "PolyMap(1->1: [x0])", "PolyMap(3->1: [-x0])"]


def test_checkers_agree_per_family():
    towers = [omega(pm(["x0^2"], 1), 3), corrupt_ds2(), corrupt_ds3(),
              corrupt_ds4(), corrupt_ds3_joint(), corrupt_ds1()]
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


# DS.1' and DS.2' on polynomial terms are decided from the monomials
# (`poly._settled`); these tests hold that decision to the built maps.

def settled_against_built(tower):
    """(n, k, axiom) of each DS.1'/DS.2' instance of the termwise checker
    where `poly._settled` on freshly deferred precompositions disagrees
    with comparing the built ones."""
    wrong = []
    for n in range(tower.order):
        term = tower.terms[n + 1]
        for k in range(n + 1):
            h = {kind: canonical_map(kind, tower.dom << (n - k))
                 for kind in ("zpair", "sumv", "sumproj0", "sumproj1")}
            pairs = {"DS.1'": ((h["zpair"],), None),
                     "DS.2'": ((h["sumv"],), (h["sumproj0"], h["sumproj1"]))}
            for axiom, (lhs, rhs) in pairs.items():
                got = maps._kept_precomposition(k, term, lhs)
                assert got._parts[1] is term.components
                built = _precomposed(k, term, lhs)
                other = (zero_map(built.dom, built.cod) if rhs is None
                         else maps._kept_precomposition(k, term, rhs))
                want = built == (other if rhs is None
                                 else _precomposed(k, term, rhs))
                if poly._settled(got, other) != want:
                    wrong.append((n, k, axiom))
    return wrong


def nudged(seed, how):
    """A random tower ("random"), or a lifted one with one monomial added to
    ("add") or dropped from ("drop") one component of one term."""
    rng = random.Random(seed)
    dom, cod = rng.randint(1, 2), rng.randint(1, 2)
    if how == "random":
        return random_tower(rng, dom, cod, 3)
    tower = omega(random_poly_map(rng, dom, cod), 3)
    n, i = rng.randint(1, 3), rng.randrange(cod)
    term = tower.terms[n]
    comps = list(term.components)
    items = list(comps[i].terms)
    if how == "drop" and items:
        del items[rng.randrange(len(items))]
    else:
        exps = [0] * term.dom
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(term.dom)] += 1
        items.append((tuple(exps), random_fraction(rng, nonzero=True)))
    comps[i] = Poly(term.dom, items)
    terms = list(tower.terms)
    terms[n] = PolyMap(term.dom, cod, comps)
    return PreDSeq(dom, cod, tuple(terms))


FIXED = [corrupt_ds1(), corrupt_ds2(), corrupt_ds3(), corrupt_ds4(),
         corrupt_ds3_joint(), omega(pm(["x0^3*x1 - 2*x1^2", "x0*x1"], 2), 3)]


@settings(max_examples=60, deadline=None)
@given(st.builds(nudged, st.integers(0, 2 ** 32),
                 st.sampled_from(["random", "add", "drop"])))
@example(FIXED[0])
@example(FIXED[1])
@example(FIXED[2])
@example(FIXED[3])
@example(FIXED[4])
@example(FIXED[5])
def test_monomial_predicates_decide_as_the_built_maps(tower):
    """DS.1' holds at (n, k) iff every monomial of term n + 1 reads a
    direction, and DS.2' iff every one has degree exactly 1 in them."""
    assert settled_against_built(tower) == []


def test_unprimed_checker_alone_builds_no_vanishing_or_additivity_map(
        monkeypatch):
    """On a passing polynomial tower the tower-level checker settles DS.1
    and DS.2 from the terms' monomials: it builds no zpair, sumv or
    sumproj precomposition, only the lift and flip ones of DS.3 and DS.4."""
    built, real = [], maps._precomposed
    monkeypatch.setattr(maps, "_precomposed", lambda k, m, summands: (
        built.extend(g._kept["structural"][0] for g in summands)
        or real(k, m, summands)))
    tower = omega(pm(["x0^3*x1 - 2*x1^2", "x0*x1 + 3*x0^2"], 2), 4)
    assert check_ds_unprimed(tower).passed
    assert set(built) == {"lift", "flip"}


@pytest.mark.parametrize("first", [check_ds_primed, check_ds_unprimed])
def test_the_second_checker_reads_the_kept_verdicts(first, monkeypatch):
    """A deferred precomposition keeps the verdict of its monomial test:
    run after either checker on a passing polynomial tower, the other
    tests no monomial."""
    tested = []
    for kinds, (law, partner) in list(poly._SETTLED_BY.items()):
        monkeypatch.setitem(poly._SETTLED_BY, kinds, (
            lambda *args, law=law: tested.append(law.__name__) or law(*args),
            partner))
    tower = omega(pm(["x0^3*x1 - 2*x1^2", "x0*x1 + 3*x0^2"], 2), 4)
    assert first(tower).passed
    assert set(tested) == {"_vanishes", "_additive"}
    tested.clear()
    second = check_ds_unprimed if first is check_ds_primed else check_ds_primed
    assert second(tower).passed
    assert tested == []


def test_a_deferred_precomposition_reads_as_its_build():
    """Reading a deferred map's components builds it, as the tower-level
    checker's `lmul` towers, printing and `==` do."""
    term = omega(pm(["x0^3 + x0*x1^2"], 2), 2).terms[2]
    for kinds in (("zpair",), ("sumv",), ("sumproj0", "sumproj1")):
        summands = tuple(canonical_map(kind, 2) for kind in kinds)
        deferred = maps.precompose(summands[0], 1, term, *summands[1:])
        assert hasattr(deferred, "_parts")
        built = _precomposed(1, term, summands)
        assert deferred == built and repr(deferred) == repr(built)
        assert maps.precompose(summands[0], 1, term, *summands[1:]) is deferred


MUTANTS = {
    "DS.2' accepts any degree >= 1 in the directions": (
        lambda mp: mp.setitem(poly._SETTLED_BY, ("sumv",), (
            lambda mons, mask, units: all(m & mask for m in mons),
            ("sumproj0", "sumproj1")))),
    "the mask one block off": (
        lambda mp: mp.setattr(poly, "direction_fields", lambda kind, dim, k, w: (
            tuple(f << dim * w for f in maps.direction_fields(
                kind, dim, k, w))))),
    "DS.1' always holds": (
        lambda mp: mp.setitem(poly._SETTLED_BY, ("zpair",), (
            lambda *a: True, None))),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_wrong_predicate_fails_the_fixtures(mutant, monkeypatch):
    """Each mutant of the predicates lets a corrupted fixture pass an
    instance it fails, which both the property above and the fixtures'
    exact failing sets catch."""
    assert all(settled_against_built(t) == [] for t in FIXED)
    MUTANTS[mutant](monkeypatch)
    assert any(settled_against_built(t) for t in FIXED)
    assert (failing_families(check_ds_primed(corrupt_ds1()))
            != {"DS.1'", "DS.2'"}
            or failing_families(check_ds_primed(corrupt_ds2())) != {"DS.2'"})
