"""JSON file formats for maps and towers.

A map object is {"base": "poly"|"elementary", "dom": d, "cod": c,
"components": [expr, ...]} with one grammar string per output coordinate,
written in canonical form so writing is byte-stable and reading is exact.
A tower object carries {"base", "dom", "cod", "order", "terms": [map, ...]}
with term n over 2^n blocks of the domain.
"""

import json

from .errors import DimensionMismatch, EngineError, OrderMismatch
from .maps import _check_dom, map_class
from .parser import format_map, parse_map
from .sequences import PreDSeq


def dump_map(m):
    return {
        "base": m.base,
        "dom": m.dom,
        "cod": m.cod,
        "components": format_map(m),
    }


def _field(obj, key, types, what):
    if not isinstance(obj, dict):
        raise EngineError(f"{what} must be a JSON object")
    if key not in obj:
        raise EngineError(f"{what} is missing field {key!r}")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise EngineError(f"{what} field {key!r} has the wrong type")
    return value


def _signature(obj, what):
    """The base, dom and cod fields that map and tower objects share,
    checked before any component is parsed."""
    base = _field(obj, "base", str, what)
    map_class(base)     # an unknown base is a TagMismatch
    dom = _field(obj, "dom", int, what)
    cod = _field(obj, "cod", int, what)
    if dom < 0 or cod < 0:
        raise EngineError(f"{what} dimensions must be naturals")
    _check_dom(dom, what)
    return base, dom, cod


def load_map(obj, what="map"):
    base, dom, cod = _signature(obj, what)
    components = _field(obj, "components", list, what)
    if len(components) != cod or not all(isinstance(c, str) for c in components):
        raise EngineError(
            f"{what} needs exactly cod={cod} component strings")
    return parse_map(components, dom, cod, base)


def dump_seq(seq):
    return {
        "base": seq.base,
        "dom": seq.dom,
        "cod": seq.cod,
        "order": seq.order,
        "terms": [dump_map(f) for f in seq.terms],
    }


def _seq_signature(obj, what):
    """The dom, cod and order of a tower object, checked with every term's
    signature (term n has dom << n inputs) before any component is
    parsed."""
    base, dom, cod = _signature(obj, what)
    order = _field(obj, "order", int, what)
    terms = _field(obj, "terms", list, what)
    if order < 0:
        raise OrderMismatch(f"{what} declares order {order}, below 0")
    if order != len(terms) - 1:
        raise OrderMismatch(
            f"{what} declares order {order} but carries {len(terms)} terms")
    for n, term in enumerate(terms):
        term_base, term_dom, term_cod = _signature(term, f"{what} term {n}")
        if term_base != base:
            raise EngineError(f"{what} mixes bases across terms")
        if (term_dom, term_cod) != (dom << n, cod):
            raise DimensionMismatch(
                f"{what} term {n} has signature {term_dom}->{term_cod}, "
                f"expected {dom << n}->{cod}")
    return dom, cod, order


def load_seq(obj, what="tower"):
    dom, cod, _ = _seq_signature(obj, what)
    return PreDSeq(dom, cod, tuple(
        load_map(t, f"{what} term {n}") for n, t in enumerate(obj["terms"])))


def is_seq_object(obj):
    return isinstance(obj, dict) and "terms" in obj


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise EngineError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # bad syntax or UTF-8, an over-long number
        raise EngineError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise EngineError(f"{path} is nested too deeply") from None


def to_canonical_json(obj):
    """Fixed-layout serialization so identical data yields identical bytes."""
    return json.dumps(obj, indent=2, ensure_ascii=True, allow_nan=False) + "\n"


def write_json(path, obj):
    data = to_canonical_json(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
