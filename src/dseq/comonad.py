"""Tower-of-towers structure: extraction, duplication, and the CD battery.

omega lifts a base map to its full derivative tower by iterating the joint
derivative.  The counit of a tower is its order-0 term, `seq.terms[0]`; the
comultiplication comult is the tuple of the tower's iterated shifts, which
share their terms with the source rather than copying them.  The three
comonad laws hold for arbitrary towers because both sides of each law
reduce to index arithmetic over one shared family.  The CD.1-CD.7
statement here serves base maps as well as towers.
"""

import operator
from functools import reduce

from .axioms import DSeq, _ds_laws
from .errors import AxiomViolation, InsufficientOrder
from .maps import canonical_map, identity, keep, proj, zero_map
from .reports import LawReport, bool_entry, map_entry, seq_entry
from .sequences import PreDSeq, seq_identity


def _shifts(x, n):
    """x followed by its first n differentials."""
    out = [x]
    for _ in range(n):
        out.append(out[-1].differential())
    return tuple(out)


def omega(f, order):
    """Full derivative tower of a base map, truncated at `order`."""
    return PreDSeq(f.dom, f.cod, _shifts(f, order))


def comult(seq):
    """The N + 1 shifts (seq, seq.differential(), ...) of a tower of order
    N: row n is the n-fold shift, of residual order N - n, and
    rows[n].terms[m] is seq.terms[n + m] itself."""
    return _shifts(seq, seq.order)


def check_comonad_laws(seq, tol=None):
    """The three laws, valid for arbitrary towers (no axioms assumed).

    comonad.counit-l:  row 0 of comult is the tower itself.
    comonad.counit-r:  taking the order-0 term of each row rebuilds the tower.
    comonad.coassoc:   the shifts of row n are rows n, n + 1, ..., N.
    """
    report = LawReport("comonad")
    rows = comult(seq)
    report.add(seq_entry("comonad.counit-l", 0, 0, rows[0], seq, tol))
    for n, row in enumerate(rows):
        report.add(map_entry("comonad.counit-r", n, 0, n, row.terms[0],
                             seq.terms[n], tol))
    for n, row in enumerate(rows):
        for m, lhs in enumerate(comult(row)):
            report.add(seq_entry("comonad.coassoc", n, m, lhs, rows[n + m],
                                 tol))
    return report


def check_coalgebra(f, order, tol=None):
    """omega is a coalgebra structure on its base map.

    coalgebra.counit: extracting order 0 from omega(f) gives back f.
    coalgebra.square: re-lifting term n of omega(f) at residual order
    reproduces row n of comult, term by term.
    """
    report = LawReport("coalgebra")
    tower = omega(f, order)
    report.add(map_entry("coalgebra.counit", 0, 0, 0, tower.terms[0], f, tol))
    for n, row in enumerate(comult(tower)):
        relift = omega(tower.terms[n], order - n)
        for m in range(order - n + 1):
            report.add(map_entry("coalgebra.square", n, m, n + m,
                                 relift.terms[m], row.terms[m], tol))
    return report


def _require_stamped(fixtures):
    groups = [fx if isinstance(fx, tuple) else (fx,) for fx in fixtures]
    for item in (item for group in groups for item in group):
        if not isinstance(item, DSeq):
            raise AxiomViolation("CD battery takes stamped towers")
        if item.order < 3:
            raise InsufficientOrder(
                "CD battery needs stamped towers of order >= 3")
    return [tuple(item.seq for item in group) for group in groups]


# CD.2 (k=1, k=0), CD.6 and CD.7 are the four tower axioms (`_ds_laws`).
_DS_AS_CD = {"DS.1": ("CD.2", 1), "DS.2": ("CD.2", 0), "DS.3": ("CD.6", 0),
             "DS.4": ("CD.7", 0)}


def _cd_laws(lift, compose, single=None, parallel=None, composable=None):
    """CD.1-CD.7 as (axiom, k, lhs, rhs) instances, for base maps and towers.

    `lift` turns a structural base map into a morphism of the category,
    `compose(f, g)` runs f first.  `single` feeds the laws of one morphism,
    `parallel` (equal signatures) the additive and pairing laws and
    `composable` the chain rule:

    CD.1 shift is additive          CD.5 chain rule
    CD.2 shift is linear in the     CD.6 second shift restricted to
         direction argument              (a,0,0,b) is the first shift
    CD.3 shift of identities and    CD.7 second shift is symmetric in
         projections                     the two middle blocks
    CD.4 shift respects pairing
    """
    if single is not None:
        f = single
        a, b, base = f.dom, f.cod, f.base
        df = f.differential()
        d2 = df.differential()

        def along(m, *kinds):
            return reduce(operator.add, (
                compose(lift(canonical_map(kind, a, base)), m)
                for kind in kinds))

        zero = lift(zero_map(a, b, base))
        yield "CD.1", 1, zero.differential(), lift(zero_map(2 * a, b, base))
        for law, _, lhs, rhs in _ds_laws(along, df, d2, zero):
            yield (*_DS_AS_CD[law], lhs, rhs)
        yield ("CD.3", 0, lift(identity(a, base)).differential(),
               lift(proj(a, a, 1, base)))
        for j in (0, 1):
            pj = proj(a, b, j, base)
            yield ("CD.3", 1 + j, lift(pj).differential(),
                   lift(proj(a + b, a + b, 1, base).then(pj)))
    if parallel is not None:
        f, g = parallel
        yield ("CD.1", 0, (f + g).differential(),
               f.differential() + g.differential())
        yield ("CD.4", 0, f.pair(g).differential(),
               f.differential().pair(g.differential()))
    if composable is not None:
        f, g = composable
        yield ("CD.5", 0, compose(f, g).differential(),
               compose(f.tangent(), g.differential()))


def check_cd_axioms(fixtures, tol=None):
    """Differential-combinator axioms (`_cd_laws`) at the tower level.

    Fixtures are stamped towers (singletons) or stamped pairs; a singleton
    f also feeds the pair (f, f).  Composable pairs check the chain rule
    along a second, explicit route too (CD.5 k=1), and CD.4-implied is the
    meta check that CD.4 never fails while CD.3 and CD.5 pass.
    """
    report = LawReport("cd")
    for idx, group in enumerate(_require_stamped(fixtures)):
        f, g = group * 2 if len(group) == 1 else group
        chain = len(group) == 2 and f.cod == g.dom

        def lift(k, order=f.order):
            return keep(k, ("rmul", order),
                        seq_identity(k.dom, order, k.base).rmul, k)

        laws = _cd_laws(
            lift, PreDSeq.compose, single=f if len(group) == 1 else None,
            parallel=(f, g) if (f.dom, f.cod) == (g.dom, g.cod) else None,
            composable=(f, g) if chain else None)
        for axiom, k, lhs, rhs in laws:
            report.add(seq_entry(axiom, idx, k, lhs, rhs, tol))
        if chain:
            explicit = lift(proj(f.dom, f.dom, 0, f.base)).compose(f) \
                .pair(f.differential()) \
                .compose(g.differential())
            report.add(seq_entry("CD.5", idx, 1, f.compose(g).differential(),
                                 explicit, tol))

    ok = {axiom: all(e.passed for e in report.entries if e.axiom == axiom)
          for axiom in ("CD.3", "CD.4", "CD.5")}
    report.add(bool_entry("CD.4-implied", 0, 0,
                          not (ok["CD.3"] and ok["CD.5"]) or ok["CD.4"]))
    return report
