"""Randomized law batteries.

Each battery builds seeded fixtures and replays a list of identities along
two independently constructed routes, recording one report entry per
(identity, trial).  Entry index n is the trial, k distinguishes variants of
the same identity.  Every identity is expected to hold for every input the
battery can generate; a failure indicates an engine defect, never bad luck
with the draw.
"""

from .axioms import check_ds_primed, check_ds_unprimed, is_linear, t2
from .comonad import _cd_laws, comult, omega
from .fixtures import (corrupt_ds1, corrupt_ds2, corrupt_ds3, corrupt_ds3_joint,
                       corrupt_ds4, random_dim, random_linear_map, random_map,
                       random_nonlinear_map, random_poly_map, random_tower)
from .maps import canonical_map, identity, pfunctor_apply, proj, zero_map
from .reports import LawReport, bool_entry, map_entry, seq_entry
from .sequences import seq_identity, seq_product, seq_proj, seq_zero


def base_category_laws(rng, trials, base="poly", tol=None):
    """Category structure, additivity, and the seven axioms of the joint
    derivative (`comonad._cd_laws`), checked on base maps."""
    report = LawReport("base")
    for t in range(trials):
        a, b, c, d = (random_dim(rng) for _ in range(4))
        f = random_map(rng, a, b, base)
        f2 = random_map(rng, a, b, base)
        g = random_map(rng, b, c, base)
        g2 = random_map(rng, b, c, base)
        h = random_map(rng, c, d, base)
        e = random_map(rng, c, a, base)

        def E(axiom, k, lhs, rhs):
            report.add(map_entry(axiom, t, k, 0, lhs, rhs, tol))

        E("base.assoc", 0, f.then(g).then(h), f.then(g.then(h)))
        E("base.unit", 0, identity(a, base).then(f), f)
        E("base.unit", 1, f.then(identity(b, base)), f)
        E("base.left-add", 0, f.then(g + g2), f.then(g) + f.then(g2))
        E("base.zero-after", 0, f.then(zero_map(b, c, base)),
          zero_map(a, c, base))
        E("base.pair-proj", 0, f.pair(f2).then(proj(b, b, 0, base)), f)
        E("base.pair-proj", 1, f.pair(f2).then(proj(b, b, 1, base)), f2)
        E("base.pair-fusion", 0, e.then(f.pair(f2)),
          e.then(f).pair(e.then(f2)))
        E("base.pfunctor-id", 0, pfunctor_apply(identity(a, base), 1),
          identity(2 * a, base))
        E("base.pfunctor-compose", 0, pfunctor_apply(f.then(g), 2),
          pfunctor_apply(f, 2).then(pfunctor_apply(g, 2)))

        for axiom, k, lhs, rhs in _cd_laws(lambda m: m, type(f).then,
                                           single=f, parallel=(f, f2),
                                           composable=(f, g)):
            E(axiom, k, lhs, rhs)

        if base == "poly":
            lin = random_linear_map(rng, a, b)
            E("base.linear-diff", 0, lin.differential(),
              proj(a, a, 1, base).then(lin))
            E("base.linear-tangent", 0, lin.tangent(),
              pfunctor_apply(lin, 1))
    return report


def tower_identity_laws(rng, trials, order=3, tol=None):
    """The structural identity battery for arbitrary towers: scalar actions,
    tangent and shift, composition, products, sums, and the structural-map
    pairing identities.  The subterms several identities share (f o g,
    f.lmul(h), f.rmul(k), <f, f2>, f + f2) are built once per trial, and
    the two sides of each identity are still built apart."""
    report = LawReport("pre_d")
    base = "poly"
    for t in range(trials):
        a, b, c, d, a2, b2 = (random_dim(rng) for _ in range(6))
        f = random_tower(rng, a, b, order)
        f2 = random_tower(rng, a, b, order)
        f3 = random_tower(rng, a, b, order)
        f4 = random_tower(rng, a, b, order)
        g = random_tower(rng, b, c, order)
        g2 = random_tower(rng, c, d, order)
        h = random_poly_map(rng, a2, a)
        h2 = random_poly_map(rng, b2, a2)
        k = random_poly_map(rng, b, b)
        k2 = random_poly_map(rng, b, b)
        kc = random_poly_map(rng, c, c)
        k1p = random_poly_map(rng, b, c)
        k2p = random_poly_map(rng, b, d)
        lin = random_linear_map(rng, b, c)
        ident_a = seq_identity(a, order)
        zero_ab = seq_zero(a, b, order)

        def E(axiom, k_, lhs, rhs):
            report.add(seq_entry(axiom, t, k_, lhs, rhs, tol))

        fg, fh, fk, ff2, fsum = (f.compose(g), f.lmul(h), f.rmul(k),
                                 f.pair(f2), f + f2)
        f2h = f2.lmul(h)

        E("scalar.assoc-l", 0, fh.lmul(h2), f.lmul(h2.then(h)))
        E("scalar.unit-l", 0, f.lmul(identity(a)), f)
        E("scalar.unit-r", 0, f.rmul(identity(b)), f)
        E("scalar.assoc-r", 0, fk.rmul(k2), f.rmul(k.then(k2)))
        E("scalar.middle", 0, fh.rmul(k), fk.lmul(h))

        E("tangent.pi0", 0, f.lmul(proj(a, a, 0)),
          f.tangent().rmul(proj(b, b, 0)))
        E("tangent.pi1", 0, f.tangent().rmul(proj(b, b, 1)), f.differential())
        E("tangent.lmul", 0, fh.tangent(),
          f.tangent().lmul(pfunctor_apply(h, 1)))
        E("tangent.rmul", 0, fk.tangent(),
          f.tangent().rmul(pfunctor_apply(k, 1)))
        E("diff.lmul", 0, fh.differential(),
          f.differential().lmul(pfunctor_apply(h, 1)))
        E("diff.rmul", 0, fk.differential(), f.differential().rmul(k))

        E("functor.id", 0, ident_a.tangent(), seq_identity(2 * a, order - 1))
        E("functor.compose", 0, fg.tangent(),
          f.tangent().compose(g.tangent()))
        report.add(map_entry("compose.term0", t, 0, 0,
                             fg.terms[0],
                             f.terms[0].then(g.terms[0]), tol))
        E("category.assoc", 0, fg.compose(g2),
          f.compose(g.compose(g2)))
        E("category.unit-l", 0, ident_a.compose(f), f)
        E("category.unit-r", 0, f.compose(seq_identity(b, order)), f)

        E("mixed.lmul-compose", 0, fh.compose(g), fg.lmul(h))
        E("mixed.rmul-compose", 0, f.compose(g.rmul(kc)),
          fg.rmul(kc))
        E("mixed.exchange", 0, fk.compose(g), f.compose(g.lmul(k)))
        E("mixed.scalar-ident-l", 0, ident_a.lmul(h).compose(f), fh)
        E("mixed.scalar-ident-r", 0,
          f.compose(seq_identity(b, order).rmul(k)), fk)

        E("product.lmul-pair", 0, ff2.lmul(h), fh.pair(f2h))
        E("product.rmul-pair", 0, f.rmul(k1p.pair(k2p)),
          f.rmul(k1p).pair(f.rmul(k2p)))
        E("product.proj", 0, ff2.rmul(proj(b, b, 0)), f)
        E("product.proj", 1, ff2.rmul(proj(b, b, 1)), f2)
        E("product.universal", 0,
          ff2.compose(seq_proj(b, b, 0, order)), f)
        E("product.universal", 1,
          ff2.compose(seq_proj(b, b, 1, order)), f2)
        E("product.flip-pair", 0,
          ff2.pair(f3.pair(f4)).rmul(canonical_map("flip", b)),
          f.pair(f3).pair(f2.pair(f4)))

        E("dt.tangent-pair", 0, f.tangent(),
          f.lmul(proj(a, a, 0)).pair(f.differential()))
        E("dt.diff-ident", 0, ident_a.differential(),
          seq_identity(2 * a, order).rmul(proj(a, a, 1)))
        for j in (0, 1):
            back = proj(a + b, a + b, 1).then(proj(a, b, j))
            E("dt.diff-proj", j, seq_proj(a, b, j, order).differential(),
              seq_identity(2 * (a + b), order).rmul(back))
        E("dt.chain", 0, fg.differential(),
          f.tangent().compose(g.differential()))
        E("dt.diff-pair", 0, ff2.differential(),
          f.differential().pair(f2.differential()))

        E("add.lmul-zero", 0, zero_ab.lmul(h), seq_zero(a2, b, order))
        E("add.rmul-zero", 0, f.rmul(zero_map(b, c)), seq_zero(a, c, order))
        E("add.rmul-sum", 0, f.rmul(k + k2), fk + f.rmul(k2))
        E("add.lmul-sum", 0, fsum.lmul(h), fh + f2h)
        E("add.zero-rmul-linear", 0, zero_ab.rmul(lin), seq_zero(a, c, order))
        E("add.sum-rmul-linear", 0, fsum.rmul(lin),
          f.rmul(lin) + f2.rmul(lin))
        E("add.zpair", 0, f.rmul(canonical_map("zpair", b)),
          f.pair(zero_ab))
        E("add.sumv", 0, f.pair(f2.pair(f3)).rmul(canonical_map("sumv", b)),
          f.pair(f2 + f3))
        E("add.lift", 0, ff2.rmul(canonical_map("lift", b)),
          f.pair(zero_ab).pair(zero_ab.pair(f2)))
        E("add.diff-zero", 0, zero_ab.differential(),
          seq_zero(2 * a, b, order - 1))
        E("add.diff-sum", 0, fsum.differential(),
          f.differential() + f2.differential())
        E("add.tangent-zero", 0, zero_ab.tangent(),
          seq_zero(2 * a, 2 * b, order - 1))
        E("add.tangent-sum", 0, fsum.tangent(),
          f.tangent() + f2.tangent())

        zero_aa = seq_zero(a, a, order)
        E("predelta.zpair", 0, ident_a.pair(zero_aa),
          ident_a.rmul(canonical_map("zpair", a)))
        E("predelta.sumv", 0,
          seq_product([ident_a,
                       seq_proj(a, a, 0, order) + seq_proj(a, a, 1, order)]),
          seq_identity(3 * a, order).rmul(canonical_map("sumv", a)))
        E("predelta.lift", 0,
          seq_product([ident_a.pair(zero_aa), zero_aa.pair(ident_a)]),
          seq_identity(2 * a, order).rmul(canonical_map("lift", a)))
        E("predelta.flip", 0,
          seq_product([ident_a,
                       seq_proj(a, a, 1, order).pair(seq_proj(a, a, 0, order)),
                       ident_a]),
          seq_identity(4 * a, order).rmul(canonical_map("flip", a)))
    return report


def tower_axiom_closure_laws(rng, trials, order=3, tol=None):
    """Verified towers stay verified under every tower construction, the two
    checker styles agree (also on hand-broken inputs), and linearity is
    detected exactly."""
    report = LawReport("ds_closure")
    for t in range(trials):
        a, b, c, a2 = (random_dim(rng) for _ in range(4))
        u = random_poly_map(rng, a, b)
        w = random_poly_map(rng, a, b)
        v = random_poly_map(rng, b, c)
        F = omega(u, order)
        W = omega(w, order)
        G = omega(v, order)
        h_lin = random_linear_map(rng, a2, a)
        l_lin = random_linear_map(rng, b, c)

        def passes(axiom, k_, tower):
            rep = check_ds_primed(tower, tol)
            report.add(bool_entry(axiom, t, k_, rep.passed, tower.order))

        passes("closure.omega", 0, F)
        passes("closure.zero", 0, seq_zero(a, b, order))
        passes("closure.ident", 0, seq_identity(a, order))
        passes("closure.proj", 0, seq_proj(a, b, rng.randint(0, 1), order))
        passes("closure.lmul-linear", 0, F.lmul(h_lin))
        passes("closure.rmul-linear", 0, F.rmul(l_lin))
        passes("closure.pair", 0, F.pair(W))
        passes("closure.sum", 0, F + W)
        passes("closure.diff", 0, F.differential())
        passes("closure.tangent", 0, F.tangent())
        passes("closure.compose", 0, F.compose(G))

        agree_on = [F, F + W, F.compose(G)]
        if t == 0:
            agree_on += [corrupt_ds2(), corrupt_ds3(), corrupt_ds4(),
                         corrupt_ds3_joint(), corrupt_ds1()]
        for k_, tower in enumerate(agree_on):
            primed = check_ds_primed(tower, tol)
            unprimed = check_ds_unprimed(tower, tol)
            agree = ({e.axiom.rstrip("'") for e in primed.failing()}
                     == {e.axiom for e in unprimed.failing()})
            report.add(bool_entry("closure.agreement", t, k_, agree,
                                  tower.order))

        lin_map = random_linear_map(rng, a, b)
        lin_tower = omega(lin_map, order)
        report.add(bool_entry("linear.pos", t, 0,
                              is_linear(lin_tower, tol), order))
        report.add(bool_entry("linear.neg", t, 0,
                              not is_linear(omega(random_nonlinear_map(
                                  rng, a, b), order), tol), order))
        report.add(seq_entry("linear.diff-form", t, 0,
                             lin_tower.differential(),
                             lin_tower.lmul(proj(a, a, 1)), tol))
    return report


def tower_naturality_laws(rng, trials, order=3, tol=None):
    """Structural maps commute with tangent on verified towers; the triple
    carrier built by t2 mediates the direction-projection cases."""
    report = LawReport("ds_naturality")
    for t in range(trials):
        a, b = random_dim(rng), random_dim(rng)
        F = omega(random_poly_map(rng, a, b), order)
        TF = F.tangent()
        T2F = TF.tangent()
        alt = t2(F)

        def E(axiom, lhs, rhs):
            report.add(seq_entry(axiom, t, 0, lhs, rhs, tol))

        E("nat.zpair", TF.lmul(canonical_map("zpair", a)),
          F.rmul(canonical_map("zpair", b)))
        E("nat.sumproj0", TF.lmul(canonical_map("sumproj0", a)),
          alt.rmul(canonical_map("sumproj0", b)))
        E("nat.sumproj1", TF.lmul(canonical_map("sumproj1", a)),
          alt.rmul(canonical_map("sumproj1", b)))
        E("nat.sumv", TF.lmul(canonical_map("sumv", a)),
          alt.rmul(canonical_map("sumv", b)))
        E("nat.lift", T2F.lmul(canonical_map("lift", a)),
          TF.rmul(canonical_map("lift", b)))
        E("nat.flip", T2F.lmul(canonical_map("flip", a)),
          T2F.rmul(canonical_map("flip", b)))
    return report


def omega_structure_laws(rng, trials, order=3, tol=None):
    """Lifting a base map to its tower preserves identities, projections,
    zero, sums, pairing, and composition; the shifts comult lists are
    the re-lifted terms and stay verified."""
    report = LawReport("omega")
    for t in range(trials):
        a, b, c = (random_dim(rng) for _ in range(3))
        u = random_poly_map(rng, a, b)
        w = random_poly_map(rng, a, b)
        v = random_poly_map(rng, b, c)

        def E(axiom, k_, lhs, rhs):
            report.add(seq_entry(axiom, t, k_, lhs, rhs, tol))

        E("omega.ident", 0, omega(identity(a), order), seq_identity(a, order))
        j = rng.randint(0, 1)
        E("omega.proj", 0, omega(proj(a, b, j), order),
          seq_proj(a, b, j, order))
        E("omega.zero", 0, omega(zero_map(a, b), order),
          seq_zero(a, b, order))
        E("omega.sum", 0, omega(u + w, order), omega(u, order) + omega(w, order))
        E("omega.pair", 0, omega(u.pair(w), order),
          omega(u, order).pair(omega(w, order)))
        E("omega.compose", 0, omega(u.then(v), order),
          omega(u, order).compose(omega(v, order)))

        tower = omega(u, order)
        rows = comult(tower)
        for n in range(1, order + 1):
            E("omega.rows", n, rows[n], omega(tower.terms[n], order - n))
            report.add(bool_entry("delta.preserves", t, n,
                                  check_ds_primed(rows[n], tol).passed,
                                  order - n))
    return report
