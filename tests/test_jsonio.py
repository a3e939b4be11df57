"""JSON round trips, validation failures, and canonical byte output."""

import json

import pytest

from dseq.comonad import omega
from dseq.errors import DimensionMismatch, EngineError, OrderMismatch
from dseq.fixtures import random_elem_map, random_poly_map, rng_for
from dseq.jsonio import (dump_map, dump_seq, is_seq_object, load_map,
                         load_seq, read_json, to_canonical_json, write_json)
from dseq.parser import parse_map


def pm(components, dom):
    return parse_map(components, dom, len(components), "poly")


def test_map_round_trip():
    rng = rng_for(3, "jsonio")
    for _ in range(10):
        m = random_poly_map(rng, rng.choice([1, 2, 3]), rng.choice([1, 2]))
        assert load_map(dump_map(m)) == m


def test_elem_map_round_trip():
    rng = rng_for(3, "jsonio-elem")
    for _ in range(10):
        m = random_elem_map(rng, rng.choice([1, 2]), rng.choice([1, 2]))
        assert load_map(dump_map(m)).equal(m, 1e-12)


def test_seq_round_trip():
    t = omega(pm(["x0^2 + x0*x1", "x1^3"], 2), 2)
    again = load_seq(dump_seq(t))
    assert again.terms == t.terms


def test_dump_map_shape():
    obj = dump_map(pm(["x0^2"], 1))
    assert obj == {"base": "poly", "dom": 1, "cod": 1, "components": ["x0^2"]}


def test_seq_object_detection():
    t = omega(pm(["x0^2"], 1), 1)
    assert is_seq_object(dump_seq(t))
    assert not is_seq_object(dump_map(pm(["x0"], 1)))


def test_load_map_missing_field():
    with pytest.raises(EngineError):
        load_map({"base": "poly", "dom": 1, "components": ["x0"]})


def test_load_map_bad_types():
    with pytest.raises(EngineError):
        load_map({"base": "poly", "dom": True, "cod": 1, "components": ["x0"]})
    with pytest.raises(EngineError):
        load_map({"base": "maple", "dom": 1, "cod": 1, "components": ["x0"]})


def test_load_seq_order_must_match_terms():
    obj = dump_seq(omega(pm(["x0^2"], 1), 2))
    obj["order"] = 1
    with pytest.raises(OrderMismatch):
        load_seq(obj)


def test_load_seq_term_dimensions_validated():
    obj = dump_seq(omega(pm(["x0^2"], 1), 1))
    obj["terms"][1]["dom"] = 3
    obj["terms"][1]["components"] = ["x0"]
    with pytest.raises(DimensionMismatch):
        load_seq(obj)


def test_load_seq_checks_every_term_signature_before_parsing():
    obj = dump_seq(omega(pm(["x0^2"], 1), 1))
    obj["terms"][0]["components"] = ["x0 +"]
    obj["terms"][1]["cod"] = 2
    with pytest.raises(DimensionMismatch) as info:
        load_seq(obj, what="t.json")
    assert str(info.value) == ("t.json term 1 has signature 2->2, "
                               "expected 2->1")


@pytest.mark.parametrize("dom", [2 ** 20 + 1, 2 ** 60, 10 ** 20])
def test_a_dom_too_large_to_pack_is_refused(dom):
    """parse_map, load_map and load_seq refuse a map of more inputs than a
    packed monomial can hold, before any component is parsed."""
    message = f"has {dom} inputs, over the limit of 1048576"
    with pytest.raises(EngineError, match=message):
        parse_map(["x0"], dom, 1)
    with pytest.raises(EngineError, match=message):
        load_map({"base": "poly", "dom": dom, "cod": 1,
                  "components": ["x0"]})
    obj = dump_seq(omega(pm(["x0^2"], 1), 1))
    obj["terms"][1]["dom"] = dom
    with pytest.raises(EngineError, match="tower term 1 " + message):
        load_seq(obj)
    obj = dump_seq(omega(pm(["x0^2"], 1), 0))
    obj["dom"] = obj["terms"][0]["dom"] = dom
    with pytest.raises(EngineError, match="tower " + message):
        load_seq(obj)


def test_a_dom_at_the_limit_is_read():
    (p,) = parse_map(["x1048575"], 2 ** 20, 1).components
    assert p.terms[0][0][-1] == 1


def test_load_seq_refuses_negative_dimensions_as_load_map_does():
    obj = dump_seq(omega(pm(["x0^2"], 1), 1))
    obj["dom"] = -1
    with pytest.raises(EngineError) as info:
        load_seq(obj, what="t.json")
    assert str(info.value) == "t.json dimensions must be naturals"


def test_load_seq_unknown_base():
    obj = dump_seq(omega(pm(["x0^2"], 1), 1))
    obj["base"] = "maple"
    with pytest.raises(EngineError):
        load_seq(obj)


def test_load_seq_base_consistency():
    obj = dump_seq(omega(pm(["x0^2"], 1), 1))
    obj["terms"][1]["base"] = "elementary"
    with pytest.raises(EngineError):
        load_seq(obj)


def test_read_json_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(EngineError):
        read_json(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(EngineError):
        read_json(str(bad))


def test_canonical_json_is_stable():
    obj = dump_seq(omega(pm(["x0^2"], 1), 1))
    text = to_canonical_json(obj)
    assert text.endswith("\n")
    assert to_canonical_json(json.loads(text)) == text


def test_write_json(tmp_path):
    path = tmp_path / "out.json"
    obj = dump_map(pm(["x0^2"], 1))
    write_json(str(path), obj)
    assert read_json(str(path)) == obj
    assert path.read_text(encoding="utf-8") == to_canonical_json(obj)
