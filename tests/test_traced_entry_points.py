"""The traced benchmark run wraps dseq entry points by name.

`perfbench/tracer.py` replaces each function or method listed in its
SPANNED table from outside the package, and reads `cache_info()` off
`maps.canonical_map`.  A rename here would crash a traced run, so every
name it wraps must still resolve where the tracer looks for it.
"""

import importlib
import importlib.util
import os

import pytest

from dseq import maps, parser

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("modname, path, prefix", load_tracer().SPANNED)
def test_spanned_entry_point_resolves(modname, path, prefix):
    mod = importlib.import_module(f"dseq.{modname}")
    if "." in path:
        clsname, attr = path.split(".")
        assert attr in vars(getattr(mod, clsname)), prefix
    else:
        assert callable(getattr(mod, path, None)), prefix


def test_canonical_map_keeps_its_cache():
    assert callable(maps.canonical_map.cache_info)


def test_parse_map_reads_through_the_module_global(monkeypatch):
    """The tracer wraps `parser.parse_component` in the module namespace, so
    `parse_map` must look it up there for the traced metrics to cover every
    component it reads, the flat-sum scan included."""
    calls = []
    real = parser.parse_component

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(parser, "parse_component", counted)
    m = parser.parse_map(["x0^2 + 3/2*x1", "x0 - 1"], 2, 2, "poly")
    assert len(calls) == 2
    assert m == parser.parse_map(["x0^2 + 3/2*x1", "x0 - 1"], 2, 2, "poly")
