"""Axiom checkers for derivative towers.

Two equivalent formulations are implemented.  The termwise ("primed") form
checks each tower entry against structural block maps pushed through k
doublings; the tower-level ("unprimed") form states the same laws as
equalities of residual towers under left scalar actions.  The primed
instance at (n + k, k) coincides with the unprimed instance at (n, k), so
the two checkers must agree in aggregate on every input, and they build the
same precompositions: both go through `maps.precompose` (the unprimed one
by `lmul`), which keeps them on the term (see `maps`), so the second
checker run on a tower reads what the first built.  Both run the one
statement of the four laws, `_ds_laws`, which the CD battery also runs
(`comonad._cd_laws`: CD.2, CD.6 and CD.7 are these laws read on a
morphism's first and second shift).

Axiom identifiers:
    DS.1': zeroed directions kill the term         (vanishing)
    DS.2': terms are additive in each direction    (additivity)
    DS.3': embedding (a,0,0,b) recovers the previous term   (lift)
    DS.4': swapping the two middle blocks fixes the term    (symmetry)
with DS.1 .. DS.4 the tower-level counterparts.

On polynomial terms DS.1' and DS.2' are read off the monomials, with no
map built (`poly._settled`); these are the additivity and linearity axioms
of Blute, Cockett and Seely's Cartesian differential categories.  At an
instance (n, k) let Y be the variables of term m = f_(n+1) that zpair
zeroes and sumv splits: the second block of each of the 2^k copies of the
pushed map.
- DS.1' holds iff every monomial of m reads some variable of Y.  Zeroing
  Y keeps exactly the monomials that miss Y, relabeled one to one, so the
  precomposition is zero iff there are none.
- DS.2' holds iff every monomial has degree exactly 1 in Y.  Split m into
  its Y-homogeneous parts m_d, of degree d in Y.  The law reads
  m(a, b + c) = m(a, b) + m(a, c) as polynomials in the blocks a, b, c;
  put c = b: sum_d 2^d m_d(a, b) = 2 sum_d m_d(a, b), so each m_d with
  2^d != 2, that is d != 1, is zero.  Conversely a part linear in Y is
  additive in it.
So no polynomial term fails DS.1' alone: a monomial that misses Y has
degree 0 in it.  Each test is one AND of a monomial with a field mask
(`maps.direction_fields`); where it fails, the maps are built and
compared as on every other law, and the witness is their difference.
"""

from dataclasses import dataclass

from .errors import AxiomViolation
from .maps import canonical_map, coord_slice, precompose, zero_map
from .reports import LawReport, map_entry, seq_entry
from .sequences import PreDSeq, seq_identity, seq_zero


def _ds_laws(along, first, second, zero):
    """DS.1-DS.4 as (axiom, depth, lhs, rhs) instances.

    `first` and `second` are a morphism's first and second shift (`second`
    is None when the order runs out, which drops DS.3 and DS.4); depth
    counts the shifts a law reads.  `along(m, *kinds)` is the sum of m
    precomposed with each structural map of `kinds`
    (`maps.canonical_map`), and `zero` is the zero morphism that DS.1
    compares with.
    """
    yield "DS.1", 1, along(first, "zpair"), zero
    yield ("DS.2", 1, along(first, "sumv"),
           along(first, "sumproj0", "sumproj1"))
    if second is not None:
        yield "DS.3", 2, along(second, "lift"), first
        yield "DS.4", 2, along(second, "flip"), second


def check_ds_primed(seq, tol=None):
    """Termwise axiom battery over every in-budget instance (n, k <= n):
    terms n + 1 and n + 2 against structural maps built at block size
    2^(n-k) * dom and pushed through k doublings."""
    report = LawReport("ds_primed")
    for n in range(seq.order):
        first = seq.terms[n + 1]
        second = seq.terms[n + 2] if n + 2 <= seq.order else None
        zero = zero_map(seq.dom << n, seq.cod, seq.base)
        for k in range(n + 1):
            def along(m, *kinds):
                h, *more = (canonical_map(kind, seq.dom << (n - k), seq.base)
                            for kind in kinds)
                return precompose(h, k, m, *more)

            for axiom, depth, lhs, rhs in _ds_laws(along, first, second, zero):
                report.add(map_entry(axiom + "'", n, k, n + depth, lhs, rhs,
                                     tol))
    return report


def check_ds_unprimed(seq, tol=None):
    """Tower-level battery: the same laws as equalities of shifted towers,
    the (n+1)-fold shift and its own shift under left scalar actions."""
    report = LawReport("ds_unprimed")
    first = seq
    for n in range(seq.order):
        first = first.differential()
        second = first.differential() if first.order else None
        zero = seq_zero(seq.dom << n, seq.cod, first.order, seq.base)

        def along(m, *kinds):
            return m.lmul(*(canonical_map(kind, seq.dom << n, seq.base)
                            for kind in kinds))

        for axiom, _, lhs, rhs in _ds_laws(along, first, second, zero):
            report.add(seq_entry(axiom, n, 0, lhs, rhs, tol))
    return report


def is_linear(seq, tol=None):
    """True iff every term factors as the all-ones block selection followed
    by the order-0 term."""
    ident = seq_identity(seq.dom, seq.order, seq.base)
    for n, f_n in enumerate(seq.terms):
        if not ident.terms[n].then(seq.terms[0]).equal(f_n, tol):
            return False
    return True


def t2(seq):
    """Second-order tangent carrier on the triple domain (a, b, c): the map
    at a, plus the directional terms in b and in c.  Costs one order."""
    a, b, c = (coord_slice(3 * seq.dom, j * seq.dom, seq.dom, seq.base)
               for j in range(3))
    diff = seq.differential()
    return seq.lmul(a).pair(diff.lmul(a.pair(b)).pair(diff.lmul(a.pair(c))))


@dataclass(frozen=True)
class DSeq:
    """A tower stamped by a successful termwise axiom run at its full depth."""

    seq: PreDSeq
    stamp: tuple  # ((axiom, n, k), ...) instances that were verified

    @classmethod
    def verify(cls, seq, tol=None):
        report = check_ds_primed(seq, tol)
        if not report.passed:
            bad = report.failing()[0]
            raise AxiomViolation(
                f"tower fails {bad.axiom} at (n={bad.n}, k={bad.k}); "
                "not a valid derivative tower")
        return cls(seq, tuple((e.axiom, e.n, e.k) for e in report.entries))

    @property
    def order(self):
        return self.seq.order
