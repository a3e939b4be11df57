"""Seeded end-to-end verification pass.

Runs every law battery plus the axiom checkers, comonad laws, coalgebra
laws, differential-combinator axioms, and chain-rule cross-checks on
deterministic random fixtures.  Each suite draws from its own labeled
stream, so reruns with the same seed and trial count reproduce the same
fixtures and the same report, byte for byte.
"""

import math

from .axioms import DSeq, check_ds_primed, check_ds_unprimed
from .comonad import check_cd_axioms, check_coalgebra, check_comonad_laws, omega
from .errors import EngineError
from .expr import ELEM_TOLERANCE, _run
from .faa import chain_equivalence_check
from .fixtures import (CORRUPT_BUILDERS, corrupt_ds1, random_dense_map,
                       random_dim, random_elem_map, random_poly_map,
                       random_tower, rng_for)
from .laws import (base_category_laws, omega_structure_laws,
                   tower_axiom_closure_laws, tower_identity_laws,
                   tower_naturality_laws)
from .reports import LawReport, bool_entry

ORDER = 3   # truncation order of every selftest tower


def _collapse(report, source, t, order):
    """Fold a nested report into per-family booleans for trial t."""
    for fam in sorted({e.axiom for e in source.entries}):
        ok = all(e.passed for e in source.entries if e.axiom == fam)
        report.add(bool_entry(fam, t, 0, ok, order))


def ds_axiom_suite(rng, trials, order, tol):
    """Both axiom checkers accept random lifted towers, then composites of
    random elementary pairs drawn after them, and agree; each
    hand-corrupted fixture is rejected for exactly its target axioms."""
    report = LawReport("ds")
    poly = (omega(random_poly_map(rng, random_dim(rng), random_dim(rng)),
                  order) for _ in range(trials))

    def elem():     # drawn after every poly tower, one tower at a time
        for _ in range(trials):
            a, b, c = (random_dim(rng) for _ in range(3))
            yield omega(random_elem_map(rng, a, b), order).compose(
                omega(random_elem_map(rng, b, c), order))

    for family, towers in (("ds.", poly), ("ds.elem.", elem())):
        for t, tower in enumerate(towers):
            primed = check_ds_primed(tower, tol).passed
            unprimed = check_ds_unprimed(tower, tol).passed
            for name, ok in (("primed", primed), ("unprimed", unprimed),
                             ("agree", primed == unprimed)):
                report.add(bool_entry(family + name, t, 0, ok, order))
    rejects = [({name}, build) for name, build in sorted(
        CORRUPT_BUILDERS.items())] + [({"DS.1'", "DS.2'"}, corrupt_ds1)]
    for k, (want, build) in enumerate(rejects):
        bad = build()
        failing = {e.axiom for e in check_ds_primed(bad, tol).failing()}
        report.add(bool_entry("ds.rejects", trials, k, failing == want,
                              bad.order))
    return report


def comonad_suite(rng, trials, order, tol):
    report = LawReport("comonad")
    for t in range(trials):
        a, b = random_dim(rng), random_dim(rng)
        tower = random_tower(rng, a, b, order)
        _collapse(report, check_comonad_laws(tower, tol), t, order)
    return report


def coalgebra_suite(rng, trials, order, tol):
    report = LawReport("coalgebra")
    for t in range(trials):
        a, b = random_dim(rng), random_dim(rng)
        f = random_poly_map(rng, a, b)
        _collapse(report, check_coalgebra(f, order, tol), t, order)
    return report


def cd_suite(rng, trials, order, tol):
    report = LawReport("cd")
    for t in range(trials):
        a, b, c = (random_dim(rng) for _ in range(3))
        su = DSeq.verify(omega(random_poly_map(rng, a, b), order), tol)
        sw = DSeq.verify(omega(random_poly_map(rng, a, b), order), tol)
        sv = DSeq.verify(omega(random_poly_map(rng, b, c), order), tol)
        nested = check_cd_axioms([su, (su, sw), (su, sv)], tol)
        _collapse(report, nested, t, order)
    return report


# Forward mode on dual numbers (value, derivative) of floats: derivative
# rules of their own, which share none with `ElemMap.differential`.
_DUALS = {
    "add": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "mul": lambda a, b: (a[0] * b[0], a[1] * b[0] + a[0] * b[1]),
    "pow": lambda a, n: (a[0] ** n, n * a[0] ** (n - 1) * a[1] if n else 0.0),
    "sin": lambda a: (math.sin(a[0]), math.cos(a[0]) * a[1]),
    "cos": lambda a: (math.cos(a[0]), -math.sin(a[0]) * a[1]),
    "exp": lambda a: (math.exp(a[0]), math.exp(a[0]) * a[1]),
}


def _dual_agrees(f, tol):
    """Whether term 1 of f's tower is, at each of its sample points
    (x, v), the derivative of f at x along v that a dual-number run of
    f's tape gives."""
    df = omega(f, 1).terms[1]
    tol = ELEM_TOLERANCE if tol is None else tol
    for point in df.sample_points():
        x, v = point[:f.dom], point[f.dom:]
        want = [dv for _, dv in _run(f.tape, _DUALS, lambda ins: (
            (x[ins[1]], v[ins[1]]) if ins[0] == "var"
            else (float(ins[1]), 0.0)))]
        if any(abs(a - b) > tol * max(1.0, abs(a))
               for a, b in zip(want, df.eval(point))):
            return False
    return True


def chain_suite(rng, trials, order, tol):
    """Three-route chain rule on 1->1 pairs; then, drawn after them, dense
    cubic 2->2 pairs, whose towers compose on `poly._Kron`; then random
    elementary maps, whose first differential must match a dual-number run."""
    report = LawReport("chain")
    for t in range(trials):
        inner = random_poly_map(rng, 1, 1)
        outer = random_poly_map(rng, 1, 1)
        n = 1 + t % order
        _collapse(report, chain_equivalence_check(inner, outer, n, order, tol),
                  t, n)
    for t in range(trials):
        f, g = random_dense_map(rng, 2, 2), random_dense_map(rng, 2, 2)
        report.add(bool_entry("chain.dense", t, 0, omega(f, 2).compose(
            omega(g, 2)) == omega(f.then(g), 2), 2))
    for t in range(trials):
        f = random_elem_map(rng, random_dim(rng), random_dim(rng))
        report.add(bool_entry("chain.dual", t, 0, _dual_agrees(f, tol), 1))
    return report


SUITE_BUILDERS = (
    ("base", lambda rng, trials, order, tol:
        base_category_laws(rng, trials, "poly", tol)),
    ("base_elem", lambda rng, trials, order, tol:
        base_category_laws(rng, trials, "elementary", tol)),
    ("pre_d", tower_identity_laws),
    ("ds", ds_axiom_suite),
    ("ds_closure", tower_axiom_closure_laws),
    ("ds_naturality", tower_naturality_laws),
    ("omega", omega_structure_laws),
    ("comonad", comonad_suite),
    ("coalgebra", coalgebra_suite),
    ("cd", cd_suite),
    ("chain", chain_suite),
)


def run_selftest(seed, trials, tol=None):
    """Run every suite on fresh labeled streams; returns a summary dict.
    The suites read no input, so an `EngineError` inside one is a fault of
    the engine: that suite fails, with the message under "error"."""
    suites = []
    for name, build in SUITE_BUILDERS:
        try:
            report = build(rng_for(seed, name), trials, ORDER, tol)
            suites.append({"suite": name, "pass": report.passed,
                           "checked": len(report.entries),
                           "failed": len(report.failing())})
        except EngineError as exc:
            suites.append({"suite": name, "pass": False, "checked": 1,
                           "failed": 1, "error": str(exc)})
    return {"seed": seed, "trials": trials,
            "pass": all(s["pass"] for s in suites), "suites": suites}
