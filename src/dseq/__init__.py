"""Exact higher-order differentiation over truncated derivative towers.

Two base categories are provided: exact multivariate polynomials over the
rationals, and elementary smooth expressions (sin/cos/exp with rational
coefficients) compared by seeded sampling.  Maps compose with `f.then(g)`
(f first).  Towers of iterated joint derivatives (`omega`) compose through
the tangent construction, carry two scalar actions, and satisfy a
machine-checked battery of axioms; a tower's counit is its order-0 term and
its comultiplication (`comult`) the tuple of its shifts.  Faa di Bruno
composition over set partitions and a fresh-coordinate expansion serve as
independent oracles.
"""

from .axioms import (DSeq, check_ds_primed, check_ds_unprimed, is_linear, t2)
from .comonad import (check_cd_axioms, check_coalgebra, check_comonad_laws,
                      comult, omega)
from .errors import (AxiomViolation, DimensionMismatch, EngineError,
                     FunctionNotAllowed, InsufficientOrder, OrderMismatch,
                     ParseError, TagMismatch, UnknownVariable)
from .expr import ElemMap
from .faa import (chain_equivalence_check, directional_oracle, faa_compose,
                  faa_sequence, set_partitions)
from .jsonio import dump_map, dump_seq, load_map, load_seq
from .maps import canonical_map, identity, pfunctor_apply, proj, zero_map
from .parser import format_map, parse_component, parse_map
from .poly import Poly, PolyMap
from .reports import LawEntry, LawReport
from .selftest import run_selftest
from .sequences import (PreDSeq, seq_identity, seq_product, seq_proj,
                        seq_zero)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation", "DSeq", "DimensionMismatch", "ElemMap", "EngineError",
    "FunctionNotAllowed", "InsufficientOrder", "LawEntry", "LawReport",
    "OrderMismatch", "ParseError", "Poly", "PolyMap", "PreDSeq",
    "TagMismatch", "UnknownVariable", "canonical_map",
    "chain_equivalence_check", "check_cd_axioms", "check_coalgebra",
    "check_comonad_laws", "check_ds_primed", "check_ds_unprimed", "comult",
    "directional_oracle", "dump_map", "dump_seq", "faa_compose",
    "faa_sequence", "format_map", "identity", "is_linear", "load_map",
    "load_seq", "omega", "parse_component", "parse_map", "pfunctor_apply",
    "proj", "run_selftest", "seq_identity", "seq_product", "seq_proj",
    "seq_zero", "set_partitions", "t2", "zero_map",
]
