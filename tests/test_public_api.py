"""The package's export list: every name resolves, once, and every public
name the package imports into its namespace is listed."""

import ast
import os
import subprocess
import sys

import dseq
from dseq.maps import CoordMap

INIT = os.path.join(os.path.dirname(dseq.__file__), "__init__.py")


def imported_names():
    with open(INIT, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_exported_name_resolves():
    missing = [name for name in dseq.__all__ if not hasattr(dseq, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(dseq.__all__) == len(set(dseq.__all__))


def test_every_public_import_is_exported():
    public = [name for name in imported_names() if not name.startswith("_")]
    assert public
    assert sorted(set(public) - set(dseq.__all__)) == []


def test_public_surface_is_pinned():
    # a change to the public surface edits this list on purpose
    assert sorted(dseq.__all__) == [
        "AxiomViolation", "DSeq", "DimensionMismatch", "ElemMap",
        "EngineError", "FunctionNotAllowed", "InsufficientOrder", "LawEntry",
        "LawReport", "OrderMismatch", "ParseError", "Poly", "PolyMap",
        "PreDSeq", "TagMismatch", "UnknownVariable", "canonical_map",
        "chain_equivalence_check", "check_cd_axioms", "check_coalgebra",
        "check_comonad_laws", "check_ds_primed", "check_ds_unprimed",
        "comult", "directional_oracle", "dump_map", "dump_seq", "faa_compose",
        "faa_sequence", "format_map", "identity", "is_linear", "load_map",
        "load_seq", "omega", "parse_component", "parse_map", "pfunctor_apply",
        "proj", "run_selftest", "seq_identity", "seq_product", "seq_proj",
        "seq_zero", "set_partitions", "t2", "zero_map",
    ]


def test_structural_maps_have_one_spelling():
    # the free functions in dseq.maps are the only spelling of these maps,
    # and pfunctor_apply the only spelling of doubling
    for cls in (CoordMap, dseq.PolyMap, dseq.ElemMap):
        for name in ("identity", "zero_map", "coord_slice", "proj", "tile"):
            assert not hasattr(cls, name), (cls.__name__, name)


def test_imports_only_the_standard_library():
    """The package and its CLI load nothing from outside the standard
    library: runtime dependencies stay at zero."""
    src = os.path.dirname(os.path.dirname(dseq.__file__))
    code = ("import sys; before = set(sys.modules); import dseq, dseq.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "dseq.cli" in loaded
    assert [name for name in loaded if name.split(".")[0]
            not in (*sys.stdlib_module_names, "dseq")] == []
