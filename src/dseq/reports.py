"""Uniform pass/fail reporting for law suites.

Every checker emits a LawReport: a suite name plus one entry per verified
law instance.  An entry records the axiom identifier, the instance indices
(n, k), the verdict, the depth up to which the two sides were compared
(the deepest tower term index involved), and, on failure, a witness: the
difference map for polynomial comparisons or a failing sample point for
elementary ones.  Entries keep the order they were added in; `failing`
and `to_json` read them sorted by (axiom, n, k), so reports are
byte-stable whatever order a checker adds them in.
"""

from dataclasses import dataclass, field
from operator import attrgetter

from .jsonio import dump_map
from .maps import CoordMap, compare_maps

_ORDER = attrgetter("axiom", "n", "k")     # the order reports are read in


@dataclass
class LawEntry:
    axiom: str
    n: int
    k: int
    passed: bool
    compared_depth: int
    witness: object = None


@dataclass
class LawReport:
    suite: str
    entries: list = field(default_factory=list)

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def add(self, entry):
        self.entries.append(entry)

    def failing(self):
        return sorted((e for e in self.entries if not e.passed), key=_ORDER)

    def to_json(self):
        entries = []
        for e in sorted(self.entries, key=_ORDER):
            witness = e.witness
            if isinstance(witness, CoordMap):
                witness = dump_map(witness)
            elif witness is not None and not isinstance(witness, str):
                witness = [float(x) for x in witness]
            entries.append({
                "axiom": e.axiom,
                "n": e.n,
                "k": e.k,
                "pass": e.passed,
                "compared_depth": e.compared_depth,
                "witness": witness,
            })
        return {"suite": self.suite, "pass": self.passed, "entries": entries}


def map_entry(axiom, n, k, depth, lhs, rhs, tol=None):
    """Entry comparing two morphisms built along two routes."""
    ok, witness = compare_maps(lhs, rhs, tol)
    return LawEntry(axiom, n, k, ok, depth, witness)


def seq_entry(axiom, n, k, lhs, rhs, tol=None):
    """Entry comparing two towers termwise up to the smaller residual order."""
    depth = min(lhs.order, rhs.order)
    for m in range(depth + 1):
        ok, witness = compare_maps(lhs.terms[m], rhs.terms[m], tol)
        if not ok:
            return LawEntry(axiom, n, k, False, depth, witness)
    return LawEntry(axiom, n, k, True, depth, None)


def bool_entry(axiom, n, k, passed, depth=0):
    """Entry for a check with no two-sided witness (meta assertions)."""
    return LawEntry(axiom, n, k, passed, depth, None)
