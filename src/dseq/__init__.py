"""Exact higher-order differentiation over truncated derivative towers.

Two base categories are provided: exact multivariate polynomials over the
rationals, and elementary smooth expressions (sin/cos/exp with rational
coefficients) compared by seeded sampling.  Towers of iterated joint
derivatives compose through the tangent construction, carry two scalar
actions, and satisfy a machine-checked battery of axioms; a partition
formula and a fresh-coordinate expansion serve as independent oracles.
"""

from .axioms import (DSeq, check_ds_primed, check_ds_unprimed, is_linear, t2)
from .comonad import (DeltaTable, check_cd_axioms, check_coalgebra,
                      check_comonad_laws, comult, counit, omega)
from .errors import (AxiomViolation, DimensionMismatch, EngineError,
                     FunctionNotAllowed, InsufficientOrder, OrderMismatch,
                     ParseError, TagMismatch, UnknownVariable)
from .expr import ElemMap
from .faa import (Partition, bell_number, chain_equivalence_check,
                  classical_derivative, directional_eval, directional_oracle,
                  faa_univariate, nth_symbolic_derivative, partitions,
                  pattern_derivative, unit_speed_pattern)
from .jsonio import dump_map, dump_seq, load_map, load_seq
from .maps import (canonical_map, compose, identity, pfunctor_apply, proj,
                   zero_map)
from .parser import format_map, parse_component, parse_map
from .poly import Poly, PolyMap
from .reports import LawEntry, LawReport
from .selftest import run_selftest
from .sequences import (PreDSeq, seq_identity, seq_product, seq_proj,
                        seq_terminal, seq_zero)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation", "DSeq", "DeltaTable", "DimensionMismatch", "ElemMap",
    "EngineError", "FunctionNotAllowed", "InsufficientOrder", "LawEntry",
    "LawReport", "OrderMismatch", "ParseError", "Partition", "Poly",
    "PolyMap", "PreDSeq", "TagMismatch", "UnknownVariable", "bell_number",
    "canonical_map", "chain_equivalence_check", "check_cd_axioms",
    "check_coalgebra", "check_comonad_laws", "check_ds_primed",
    "check_ds_unprimed", "classical_derivative", "compose", "comult",
    "counit", "directional_eval", "directional_oracle", "dump_map",
    "dump_seq", "faa_univariate", "format_map", "identity", "is_linear",
    "load_map", "load_seq", "nth_symbolic_derivative", "omega",
    "parse_component", "parse_map", "partitions", "pattern_derivative",
    "pfunctor_apply", "proj", "run_selftest", "seq_identity", "seq_product",
    "seq_proj", "seq_terminal", "seq_zero", "t2", "unit_speed_pattern",
    "zero_map",
]
