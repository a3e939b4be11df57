"""Acceptance criteria.

Each test drives one criterion end to end on seeded fixtures and prints a
single verdict line (run pytest with -s to see them inline).  Polynomial
comparisons are exact rational arithmetic; elementary comparisons use the
stated sampled tolerance of 1e-9.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

from dseq.axioms import DSeq, check_ds_primed, check_ds_unprimed, is_linear
from dseq.comonad import (check_cd_axioms, check_coalgebra,
                          check_comonad_laws, omega)
from dseq.faa import (SAMPLE_POINTS, directional_oracle, faa_compose,
                      faa_sequence)
from dseq.fixtures import (CORRUPT_BUILDERS, random_dim, random_linear_map,
                           random_nonlinear_map, random_poly, random_poly_map,
                           random_tower, rng_for)
from dseq.laws import tower_identity_laws
from dseq.parser import parse_map
from dseq.poly import PolyMap

SEED = 42
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def verdict(num, ok, label):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}"
    print(line)
    assert ok, line


def test_criterion_1_ds_axiom_suite():
    rng = rng_for(SEED, "acceptance-ds")
    start = time.perf_counter()
    ok = True
    for _ in range(25):
        f = random_poly_map(rng, random_dim(rng), random_dim(rng))
        tower = omega(f, 3)
        primed = check_ds_primed(tower)
        unprimed = check_ds_unprimed(tower)
        ok = ok and primed.passed and unprimed.passed
        ok = ok and primed.passed == unprimed.passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    verdict(1, ok, f"DS axioms exact on 25 random towers, both checkers "
                   f"agree, {elapsed:.2f}s < 10s")


def test_criterion_2_chain_rule_equivalence():
    rng = rng_for(SEED, "acceptance-chain")
    ok = True
    for _ in range(25):
        a, b, c = (random_dim(rng) for _ in range(3))
        f = random_poly_map(rng, a, b)
        g = random_poly_map(rng, b, c)
        tower = omega(f, 3).compose(omega(g, 3))
        iterated = omega(f.then(g), 3)
        for n in range(4):
            ok = ok and tower.terms[n].equal(iterated.terms[n])
    verdict(2, ok, "composite towers equal iterated joint derivatives "
                   "for n <= 3 on 25 pairs, exact")


def test_criterion_3_identity_battery():
    report = tower_identity_laws(rng_for(SEED, "acceptance-pre-d"), 10)
    families = len({e.axiom for e in report.entries})
    verdict(3, report.passed,
            f"{families} tower identities hold exactly on 10 fixtures each "
            f"at order 3 ({len(report.entries)} instances)")


def test_criterion_4_comonad_and_coalgebra():
    rng = rng_for(SEED, "acceptance-comonad")
    ok = True
    for _ in range(10):
        arb = random_tower(rng, random_dim(rng), random_dim(rng), 3)
        ok = ok and check_comonad_laws(arb).passed
    for _ in range(10):
        f = random_poly_map(rng, random_dim(rng), random_dim(rng))
        ok = ok and check_coalgebra(f, 3).passed
    verdict(4, ok, "comonad laws on arbitrary towers and coalgebra laws "
                   "on lifted maps, exact")


def test_criterion_5_cd_axioms_with_redundancy_check():
    rng = rng_for(SEED, "acceptance-cd")
    ok = True
    saw_meta = False
    for _ in range(5):
        a, b, c = (random_dim(rng) for _ in range(3))
        u = omega(random_poly_map(rng, a, b), 3)
        w = omega(random_poly_map(rng, a, b), 3)
        v = omega(random_poly_map(rng, b, c), 3)
        fixtures = [
            DSeq.verify(u),
            DSeq.verify(u + w),
            DSeq.verify(u.pair(w)),
            DSeq.verify(u.compose(v)),
            (DSeq.verify(u), DSeq.verify(w)),
            (DSeq.verify(u), DSeq.verify(v)),
        ]
        report = check_cd_axioms(fixtures)
        ok = ok and report.passed
        saw_meta = saw_meta or any(e.axiom == "CD.4-implied"
                                   for e in report.entries)
    verdict(5, ok and saw_meta,
            "CD.1-CD.7 exact on stamped towers closed under "
            "pair/sum/compose, with the CD.4 redundancy cross-check")


def test_criterion_6_faa_di_bruno_oracle():
    rng = rng_for(SEED, "acceptance-faa")
    ok = True
    for _ in range(10):
        inner = PolyMap(1, 1, (random_poly(rng, 1, max_degree=4),))
        outer = PolyMap(1, 1, (random_poly(rng, 1, max_degree=4),))
        composite = inner.then(outer)
        fs, gs = faa_sequence(omega(inner, 5)), faa_sequence(omega(outer, 5))
        iterated = faa_sequence(omega(composite, 5))
        for n in range(6):
            faa_map = faa_compose(fs, gs, n)
            ok = ok and faa_map.equal(iterated[n])
            oracle = directional_oracle(composite, n, [Fraction(1)])
            for x in SAMPLE_POINTS:
                ok = ok and (faa_map.eval([x] + [Fraction(1)] * n)
                             == oracle.eval([x]))
    verdict(6, ok, "Faa di Bruno composite = pattern-read derivative = "
                   "fresh-coordinate oracle for 10 pairs, n <= 5, exact")


def test_criterion_7_linearity_characterization():
    rng = rng_for(SEED, "acceptance-linear")
    ok = True
    for _ in range(5):
        a, b = random_dim(rng), random_dim(rng)
        ok = ok and is_linear(omega(random_linear_map(rng, a, b), 3))
        ok = ok and not is_linear(omega(random_nonlinear_map(rng, a, b), 3))
    verdict(7, ok, "linearity detected exactly: 5 linear accepted, "
                   "5 nonlinear rejected")


def test_criterion_8_elementary_base_smoke():
    tol = 1e-9
    tower = omega(parse_map(["sin(x0)"], 1, 1, "elementary"), 2)
    analytic = [
        parse_map(["sin(x0)"], 1, 1, "elementary"),
        parse_map(["cos(x0)*x1"], 2, 1, "elementary"),
        parse_map(["-1*sin(x0)*x1*x2 + cos(x0)*x3"], 4, 1, "elementary"),
    ]
    ok = all(tower.terms[n].equal(analytic[n], tol) for n in range(3))
    ok = ok and check_ds_primed(tower, tol).passed
    verdict(8, ok, "sin tower matches analytic derivatives and passes the "
                   "DS suite at tolerance 1e-9")


def test_criterion_9_known_negative_fixtures():
    ok = True
    for name, build in sorted(CORRUPT_BUILDERS.items()):
        report = check_ds_primed(build())
        failing = report.failing()
        ok = ok and {e.axiom for e in failing} == {name}
        ok = ok and all(e.witness is not None for e in failing)
    verdict(9, ok, "each corrupted fixture fails exactly its target axiom "
                   "with a non-null witness")


def test_criterion_10_cli_contract(tmp_path):
    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "dseq", *argv],
                              capture_output=True, timeout=300)

    # the two selftest runs go side by side, and are then waited for
    runs = [subprocess.Popen([sys.executable, "-m", "dseq", "selftest",
                              "--seed", "42", "--trials", "25"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(2)]
    first, second = (run.communicate(timeout=300)[0] for run in runs)
    ok = all(run.returncode == 0 for run in runs)
    ok = ok and first == second
    ok = ok and json.loads(first)["pass"] is True
    with open(os.path.join(FIXTURES, "golden", "selftest_42_trials25.out"),
              "rb") as fh:
        ok = ok and first == fh.read()

    fixture = os.path.join(FIXTURES, "corrupt_ds3.json")
    corrupted = cli("check", "--input", fixture, "--suite", "ds")
    ok = ok and corrupted.returncode == 1

    bad = tmp_path / "malformed.json"
    bad.write_text("{\"dom\": 1}", encoding="utf-8")
    malformed = cli("check", "--input", str(bad))
    ok = ok and malformed.returncode == 2
    verdict(10, ok, "selftest(42, 25) exits 0 with its recorded bytes; "
                    "corrupted fixture exits 1; malformed input exits 2")
