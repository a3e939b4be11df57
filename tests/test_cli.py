"""CLI subcommands: outputs, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from dseq.cli import build_parser, main
from dseq.jsonio import to_canonical_json

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_square(capsys):
    code, out, _ = run(capsys, "derive", "--map", fx("map_square.json"),
                       "--order", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 2
    assert obj["terms"][1]["components"] == ["2*x0*x1"]
    assert obj["terms"][2]["components"] == ["2*x0*x3 + 2*x1*x2"]


def test_derive_order_zero(capsys):
    code, out, _ = run(capsys, "derive", "--map", fx("map_square.json"),
                       "--order", "0")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 1


def test_derive_elementary(capsys):
    code, out, _ = run(capsys, "derive", "--map", fx("map_sin.json"),
                       "--order", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"][0]["components"] == ["sin(x0)"]
    assert obj["terms"][1]["components"] == ["cos(x0)*x1"]


def test_derive_to_file(tmp_path, capsys):
    out_path = tmp_path / "tower.json"
    code, out, _ = run(capsys, "derive", "--map", fx("map_square.json"),
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["order"] == 3


def test_a_written_tower_is_serialized_once(tmp_path, capsys, monkeypatch):
    """`--out` writes the bytes stdout would show, serialized once."""
    from dseq import cli, jsonio
    calls = []
    real = jsonio.to_canonical_json

    def counted(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(cli, "to_canonical_json", counted)
    monkeypatch.setattr(jsonio, "to_canonical_json", counted)
    out_path = tmp_path / "tower.json"
    for argv in (["derive", "--map", fx("map_square.json")],
                 ["compose", "--first", fx("map_square.json"), "--second",
                  fx("map_cube.json"), "--term", "2"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(calls) == 1
        calls.clear()
        assert run(capsys, *argv, "--out", str(out_path)) == (0, "", "")
        assert len(calls) == 1 and out_path.read_text() == out
        calls.clear()


def test_order_guard(capsys, monkeypatch):
    code, _, err = run(capsys, "derive", "--map", fx("map_square.json"),
                       "--order", "5")
    assert code == 2 and "guard" in err
    monkeypatch.setenv("DSEQ_MAX_ORDER", "5")
    assert run(capsys, "derive", "--map", fx("map_square.json"),
               "--order", "5") == (code, "", err)
    code, out, _ = run(capsys, "derive", "--map", fx("map_square.json"),
                       "--order", "5", "--allow-large")
    assert code == 0
    assert json.loads(out)["order"] == 5


def test_compose_term(capsys):
    code, out, _ = run(capsys, "compose", "--first", fx("map_square.json"),
                       "--second", fx("map_cube.json"), "--term", "1")
    assert code == 0
    assert json.loads(out)["components"] == ["6*x0^5*x1"]


def test_compose_term_zero(capsys):
    code, out, _ = run(capsys, "compose", "--first", fx("map_square.json"),
                       "--second", fx("map_cube.json"), "--term", "0")
    assert code == 0
    assert json.loads(out)["components"] == ["x0^6"]


def test_compose_full_tower(capsys):
    code, out, _ = run(capsys, "compose", "--first", fx("map_square.json"),
                       "--second", fx("map_cube.json"), "--order", "2")
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_compose_dimension_mismatch(capsys):
    code, _, err = run(capsys, "compose", "--first", fx("map_prod.json"),
                       "--second", fx("map_prod.json"))
    assert code == 2 and "compose" in err


def test_check_valid_map(capsys):
    code, out, _ = run(capsys, "check", "--input", fx("map_square.json"),
                       "--suite", "ds")
    assert code == 0
    obj = json.loads(out)
    suites = {s["suite"] for s in obj["suites"]}
    assert suites == {"ds_primed", "ds_unprimed"}
    assert all(s["pass"] for s in obj["suites"])


def test_check_corrupted_fixture_exits_one(capsys):
    code, out, _ = run(capsys, "check", "--input", fx("corrupt_ds3.json"),
                       "--suite", "ds")
    assert code == 1
    obj = json.loads(out)
    bad = [e for s in obj["suites"] for e in s["entries"] if not e["pass"]]
    assert bad and any(e["axiom"] == "DS.3'" for e in bad)
    assert all(e["witness"] is not None for e in bad)


def test_check_example_corruption(capsys):
    code, out, _ = run(capsys, "check", "--input",
                       fx("corrupt_ds3_example.json"), "--suite", "ds")
    assert code == 1
    obj = json.loads(out)
    fams = {e["axiom"] for s in obj["suites"] for e in s["entries"]
            if not e["pass"]}
    assert "DS.3'" in fams


def test_check_cd_on_corrupted_reports_stamp_failure(capsys):
    code, out, _ = run(capsys, "check", "--input", fx("corrupt_ds3.json"),
                       "--suite", "cd")
    assert code == 1
    obj = json.loads(out)
    entries = obj["suites"][0]["entries"]
    assert entries[0]["axiom"] == "CD.stamp" and not entries[0]["pass"]


@pytest.mark.parametrize("suite", ["cd", "all"])
def test_check_cd_below_order_three_exits_two(capsys, suite):
    code, out, err = run(capsys, "check", "--input", fx("map_square.json"),
                         "--suite", suite, "--order", "2")
    assert (code, out) == (2, "")
    assert err == "error: CD battery needs stamped towers of order >= 3\n"


def test_check_all_suites_on_seq_input(capsys):
    code, out, _ = run(capsys, "check", "--input", fx("seq_square.json"),
                       "--suite", "all")
    assert code == 0
    names = [s["suite"] for s in json.loads(out)["suites"]]
    assert names == ["ds_primed", "ds_unprimed", "cd"]


def check_suites():
    """The `check --suite` choices other than `all`, read from the parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["check"]._actions
                 if a.dest == "suite")
    return [name for name in suite.choices if name != "all"]


@pytest.mark.parametrize("suite", check_suites())
def test_every_check_suite_reads_its_input(tmp_path, capsys, suite):
    """A suite's verdict on a tower must depend on the tower: the order-3
    tower of x0^2 and a copy whose top term breaks DS give different
    reports."""
    tower = json.loads(pathlib.Path(fx("seq_square.json")).read_text())
    tower["terms"][3]["components"][0] += " + x7"
    broken = write_json(tmp_path / "broken.json", tower)
    outputs = [run(capsys, "check", "--input", path, "--suite", suite,
                   "--format", "json")[:2]
               for path in (fx("seq_square.json"), broken)]
    assert outputs[0] != outputs[1]


def test_check_text_format(capsys):
    code, out, _ = run(capsys, "check", "--input", fx("map_square.json"),
                       "--suite", "ds", "--format", "text")
    assert code == 0
    assert "ds_primed: PASS" in out
    assert out.rstrip().endswith("PASS")


@pytest.mark.parametrize("suite", ["cd", "all"])
@pytest.mark.parametrize("dom,cod,components", [(0, 1, ["sin(3)"]),
                                                (1, 0, [])])
def test_check_elementary_map_on_or_into_no_coordinates(tmp_path, capsys,
                                                        suite, dom, cod,
                                                        components):
    # the CD partner maps draw no coordinate leaves on a 0-dim domain
    src = write_json(tmp_path / "map.json",
                     {"base": "elementary", "dom": dom, "cod": cod,
                      "components": components})
    code, out, err = run(capsys, "check", "--input", src, "--suite", suite,
                         "--format", "text")
    assert code == 0 and out.rstrip().endswith("PASS")
    assert "Traceback" not in err


def test_check_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"base\": \"poly\"}", encoding="utf-8")
    code, _, err = run(capsys, "check", "--input", str(bad))
    assert code == 2 and "missing field" in err


def test_unknown_base_exits_two(tmp_path, capsys):
    src = write_json(tmp_path / "map.json",
                     {"base": "maple", "dom": 1, "cod": 1,
                      "components": ["x0"]})
    tower = write_json(tmp_path / "tower.json",
                       {"base": "maple", "dom": 1, "cod": 1, "order": 0,
                        "terms": [{"base": "maple", "dom": 1, "cod": 1,
                                   "components": ["x0"]}]})
    for argv in (["derive", "--map", src],
                 ["eval", "--seq", tower, "--term", "0", "--point", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "unknown base tag 'maple'" in err
        assert "Traceback" not in err


def test_check_unreadable_file(capsys):
    code, _, err = run(capsys, "check", "--input", "/definitely/not/here")
    assert code == 2 and err


def test_faa_subcommand(capsys):
    code, out, _ = run(capsys, "faa", "--inner", fx("map_square.json"),
                       "--outer", fx("map_cube.json"), "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["faa"]["components"] == ["30*x0^4*x1*x2"]
    assert obj["iterated"]["components"] == ["30*x0^4*x1*x2"]


def test_faa_multivariate_pair(capsys):
    code, out, _ = run(capsys, "faa", "--inner", fx("map_prod.json"),
                       "--outer", fx("map_cube.json"), "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["faa"]["dom"] == 6 and obj["faa"]["cod"] == 1


def test_faa_rejects_incomposable_pair(capsys):
    code, out, err = run(capsys, "faa", "--inner", fx("map_square.json"),
                         "--outer", fx("map_prod.json"), "--n", "1")
    assert code == 2 and out == "" and "composite needs" in err


def test_faa_rejects_elementary(capsys):
    code, out, err = run(capsys, "faa", "--inner", fx("map_sin.json"),
                         "--outer", fx("map_sin.json"), "--n", "1")
    assert code == 2 and out == "" and "polynomial" in err


def test_eval_subcommand(capsys):
    code, out, _ = run(capsys, "eval", "--seq", fx("seq_square.json"),
                       "--term", "1", "--point", "3,1/2")
    assert code == 0
    assert json.loads(out)["value"] == ["3"]


@pytest.mark.parametrize("point, value", [("-1,2", "-4"),
                                          ("-3/2,1/3", "-1"),
                                          ("-0,5", "0")])
def test_eval_reads_a_point_with_a_negative_first_coordinate(point, value,
                                                             capsys):
    argv = ["eval", "--seq", fx("seq_square.json"), "--term", "1"]
    code, out, err = run(capsys, *argv, "--point", point)
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == [value]
    assert run(capsys, *argv, "--point=" + point) == (code, out, err)
    assert run(capsys, *argv, "--poi", point) == (code, out, err)


def test_eval_reports_a_parse_error_in_a_term_it_does_not_evaluate(
        tmp_path, capsys):
    """Every term of the tower is parsed, not only the one evaluated: a
    file with a bad term is bad input whichever term is asked for."""
    with open(fx("seq_square.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["terms"][1]["components"] = ["2*x0*+x1"]
    path = tmp_path / "bad_term.json"
    path.write_text(to_canonical_json(obj), encoding="utf-8")
    code, out, err = run(capsys, "eval", "--seq", str(path), "--term", "0",
                         "--point", "1")
    assert code == 2 and out == "" and err.startswith("error:")


def test_eval_wrong_point_length(capsys):
    code, _, err = run(capsys, "eval", "--seq", fx("seq_square.json"),
                       "--term", "1", "--point", "3")
    assert code == 2 and "coordinates" in err


def test_eval_rejects_map_file(capsys):
    code, _, err = run(capsys, "eval", "--seq", fx("map_square.json"),
                       "--term", "0", "--point", "1")
    assert code == 2 and "sequence" in err


@pytest.mark.parametrize("seq", ["seq_square.json", "seq_dense3.json"])
@pytest.mark.parametrize("argv", [
    ("derive", "--map", "SEQ"),
    ("compose", "--first", "SEQ", "--second", "map_square.json"),
    ("compose", "--first", "map_square.json", "--second", "SEQ"),
    ("faa", "--inner", "SEQ", "--outer", "map_square.json", "--n", "1"),
    ("faa", "--inner", "map_square.json", "--outer", "SEQ", "--n", "1"),
])
def test_map_commands_refuse_a_sequence_file(capsys, seq, argv):
    argv = [fx(seq) if a == "SEQ" else fx(a) if a.endswith(".json") else a
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: {fx(seq)} is a sequence file; "
                   "a map file was expected\n")


def test_selftest_small_run(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "7", "--trials", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and obj["seed"] == 7 and obj["trials"] == 1
    assert {s["suite"] for s in obj["suites"]} >= {"base", "pre_d", "ds",
                                                   "cd", "chain"}


def test_selftest_byte_determinism(capsys):
    code1, out1, _ = run(capsys, "selftest", "--seed", "11", "--trials", "2")
    code2, out2, _ = run(capsys, "selftest", "--seed", "11", "--trials", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_selftest_text_format(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "7", "--trials", "1",
                       "--format", "text")
    assert code == 0
    assert out.rstrip().endswith("PASS")


def test_selftest_fails_the_suite_that_raises_an_engine_error(
        capsys, monkeypatch):
    """A suite reads no input, so an engine error inside it is a fault of
    the engine: that suite fails (exit 1), named on stderr with the
    message, and the suites after it still run."""
    from dseq import selftest
    from dseq.errors import EngineError

    def broken(rng, trials, order, tol):
        raise EngineError("term 3 has signature 4->1, expected 8->1")

    monkeypatch.setattr(selftest, "SUITE_BUILDERS", (
        ("omega", broken),) + selftest.SUITE_BUILDERS[:1])
    code, out, err = run(capsys, "selftest", "--seed", "7", "--trials", "1",
                         "--format", "text")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "omega: FAIL (1 checked, 1 failed)"
    assert lines[1].startswith("base: PASS") and lines[2] == "FAIL"
    assert err == ("error in suite omega: "
                   "term 3 has signature 4->1, expected 8->1\n")
    code, out, _ = run(capsys, "selftest", "--seed", "7", "--trials", "1")
    assert code == 1
    assert json.loads(out)["suites"][0]["error"] == (
        "term 3 has signature 4->1, expected 8->1")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["check", "--suite", "bogus", "--input", "x.json"])
    assert err.value.code == 2


def test_one_argument_parser_serves_every_call(capsys):
    """The parser is built once per process, and no call leaves anything in
    it: after an explicit --order and a rejected call, compose without
    --order writes the default-order tower."""
    pair = ["--first", fx("map_square.json"), "--second", fx("map_cube.json")]
    code, order2, _ = run(capsys, "compose", *pair, "--order", "2")
    assert code == 0 and json.loads(order2)["order"] == 2
    with pytest.raises(SystemExit) as err:
        main(["compose", *pair, "--order", "two"])
    assert err.value.code == 2
    capsys.readouterr()
    code, default, _ = run(capsys, "compose", *pair)
    assert code == 0 and json.loads(default)["order"] == 3
    with open(os.path.join(FIXTURES, "golden", "compose_square_cube.out"),
              encoding="ascii") as fh:
        assert default == fh.read()
    assert build_parser() is build_parser()


def usage_exit_code(*argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    return err.value.code


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def elementary_tower(tmp_path, capsys, component, order):
    """Derive the tower of a 1->1 elementary map into a file; return its
    JSON object and path."""
    src = write_json(tmp_path / "map.json",
                     {"base": "elementary", "dom": 1, "cod": 1,
                      "components": [component]})
    out = tmp_path / "tower.json"
    code, _, _ = run(capsys, "derive", "--map", src, "--order", str(order),
                     "--out", str(out))
    assert code == 0
    return json.loads(out.read_text()), str(out)


def test_bad_tolerance_exits_two(tmp_path, capsys):
    tower, path = elementary_tower(tmp_path, capsys, "sin(x0)", 2)
    top = tower["terms"][2]["components"]
    top[0] += " + 2*x1^2*x2^2"
    broken = write_json(tmp_path / "broken.json", tower)
    code, out, _ = run(capsys, "check", "--input", broken, "--suite", "ds",
                       "--format", "text")
    assert code == 1 and out.rstrip().endswith("FAIL")
    for bad in ("nan", "inf", "-1e-9"):
        assert usage_exit_code("check", "--input", broken, "--suite", "ds",
                               "--tolerance", bad) == 2
        assert usage_exit_code("selftest", "--trials", "1",
                               "--tolerance", bad) == 2
        # faa compares polynomial maps exactly and takes no tolerance
        capsys.readouterr()
        assert usage_exit_code("faa", "--inner", fx("map_square.json"),
                               "--outer", fx("map_cube.json"), "--n", "2",
                               "--tolerance", bad) == 2
        assert ("unrecognized arguments: --tolerance"
                in capsys.readouterr().err)
    code, _, _ = run(capsys, "check", "--input", broken, "--suite", "ds",
                     "--tolerance", "0")
    assert code == 1


def test_trials_below_one_exits_two(capsys):
    for bad in ("0", "-3"):
        assert usage_exit_code("selftest", "--trials", bad) == 2
    # only selftest takes trials; check reads no seeded battery
    capsys.readouterr()
    assert usage_exit_code("check", "--input", fx("map_square.json"),
                           "--trials", "2") == 2
    assert "unrecognized arguments: --trials" in capsys.readouterr().err


def test_eval_rejects_non_finite_point(tmp_path, capsys):
    _, path = elementary_tower(tmp_path, capsys, "sin(x0)", 1)
    for point in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "eval", "--seq", path, "--term", "0",
                             "--point=" + point)
        assert code == 2 and out == "" and "finite" in err
    code, _, err = run(capsys, "eval", "--seq", fx("seq_square.json"),
                       "--term", "0", "--point", "nan")
    assert code == 2 and err


def test_eval_overflow_exits_two(tmp_path, capsys):
    _, path = elementary_tower(tmp_path, capsys, "exp(x0)", 0)
    code, out, err = run(capsys, "eval", "--seq", path, "--term", "0",
                         "--point", "1000")
    assert code == 2 and out == "" and "evaluate" in err


def test_eval_domain_error_exits_two(tmp_path, capsys):
    # x0*x0 overflows to inf without raising; sin(inf) raises ValueError
    _, path = elementary_tower(tmp_path, capsys, "sin(x0*x0)", 0)
    code, out, err = run(capsys, "eval", "--seq", path, "--term", "0",
                         "--point", "1e200")
    assert code == 2 and out == "" and "evaluate" in err


def test_eval_non_finite_value_exits_two(tmp_path, capsys):
    _, path = elementary_tower(tmp_path, capsys, "x0*x0", 0)
    code, out, err = run(capsys, "eval", "--seq", path, "--term", "0",
                         "--point", "1e200")
    assert code == 2 and out == "" and "float range" in err


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        to_canonical_json({"value": [float("nan")]})


def test_check_without_finite_sample_points_fails(tmp_path, capsys):
    # C*x0*C overflows to inf and sin(inf) raises ValueError at every
    # sample point: the sampled comparisons have no evidence and must fail
    c = "1" + "0" * 300
    src = write_json(tmp_path / "map.json",
                     {"base": "elementary", "dom": 1, "cod": 1,
                      "components": [f"sin({c}*x0*{c})"]})
    code, out, _ = run(capsys, "check", "--input", src, "--suite", "ds",
                       "--format", "text")
    assert code == 1 and out.rstrip().endswith("FAIL")


@pytest.mark.parametrize("component", ["(" * 5000 + "x0" + ")" * 5000,
                                       "-" * 5000 + "x0"],
                         ids=["parentheses", "unary-minus"])
@pytest.mark.parametrize("base", ["poly", "elementary"])
def test_deeply_nested_component_exits_two(tmp_path, capsys, component, base):
    src = write_json(tmp_path / "map.json",
                     {"base": base, "dom": 1, "cod": 1,
                      "components": [component]})
    code, out, err = run(capsys, "derive", "--map", src, "--order", "1")
    assert code == 2 and out == "" and "nested too deeply" in err


def test_derive_long_flat_sum(tmp_path, capsys):
    src = write_json(tmp_path / "map.json",
                     {"base": "elementary", "dom": 1, "cod": 1,
                      "components": [" + ".join(["sin(x0)"] * 2000)]})
    code, out, _ = run(capsys, "derive", "--map", src, "--order", "1")
    assert code == 0
    assert json.loads(out)["terms"][1]["components"][0].count("cos(x0)") == 2000


def derive_poly(tmp_path, capsys, component):
    src = write_json(tmp_path / "map.json",
                     {"base": "poly", "dom": 1, "cod": 1,
                      "components": [component]})
    return run(capsys, "derive", "--map", src, "--order", "1")


def test_oversized_poly_power_exits_two_fast(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = derive_poly(tmp_path, capsys, "(x0+1)^3000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "over the budget" in err and "Traceback" not in err


@pytest.mark.parametrize("component", [
    "(" + " + ".join(f"x0^{e}" for e in range(1, 41)) + ")^5",
    " * ".join(["(" + " + ".join(f"x0^{e}" for e in range(501)) + ")"] * 2),
], ids=["power-of-sum", "product"])
def test_oversized_poly_expansion_exits_two(tmp_path, capsys, component):
    code, out, err = derive_poly(tmp_path, capsys, component)
    assert code == 2 and out == "" and "over the budget" in err


def test_poly_power_within_budget_still_parses(tmp_path, capsys):
    code, out, _ = derive_poly(tmp_path, capsys, "(x0+1)^300")
    assert code == 0
    assert json.loads(out)["terms"][0]["components"][0].startswith("x0^300 + ")


LONG = "1" * 5000      # over Python's 4,300-digit integer conversion limit


@pytest.mark.parametrize("component", [LONG, f"1/{LONG}", f"x{LONG}",
                                       f"x0^{LONG}"],
                         ids=["literal", "denominator", "variable",
                              "exponent"])
def test_over_long_integer_in_component_exits_two(tmp_path, capsys,
                                                  component):
    code, out, err = derive_poly(tmp_path, capsys, component)
    assert code == 2 and out == ""
    assert "number of 5000 digits is too long" in err


def test_over_long_integer_in_map_file_exits_two(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text('{"base": "poly", "dom": ' + LONG
                    + ', "cod": 1, "components": ["x0"]}', encoding="ascii")
    code, out, err = run(capsys, "derive", "--map", str(path))
    assert code == 2 and out == "" and "is not valid JSON" in err


def test_deeply_nested_json_file_exits_two(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text("[" * 100_000, encoding="ascii")
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == 2 and out == "" and "nested too deeply" in err


def test_non_utf8_json_file_exits_two(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_bytes(b'{"base": "\xff"}')
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == 2 and out == "" and "is not valid JSON" in err


def test_huge_constant_power_exits_two_fast(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = derive_poly(tmp_path, capsys, "3^20000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "more than 4300 digits" in err


@pytest.mark.parametrize("base,component", [("poly", "3^9100"),
                                            ("elementary", "2^20000*x0")])
def test_constant_power_over_digit_limit_exits_two(tmp_path, capsys, base,
                                                   component):
    src = write_json(tmp_path / "map.json",
                     {"base": base, "dom": 1, "cod": 1,
                      "components": [component]})
    code, out, err = run(capsys, "derive", "--map", src, "--order", "1")
    assert code == 2 and out == "" and "more than 4300 digits" in err


def test_constant_power_within_digit_limit_still_parses(tmp_path, capsys):
    code, out, _ = derive_poly(tmp_path, capsys, "3^9000")
    assert code == 0
    assert json.loads(out)["terms"][0]["components"][0] == str(3 ** 9000)


# Each factor has 4,001 digits; their product, 8,001.
@pytest.mark.parametrize("base", ["poly", "elementary"])
def test_product_grown_past_digit_limit_exits_two(tmp_path, capsys, base):
    src = write_json(tmp_path / "map.json",
                     {"base": base, "dom": 1, "cod": 1,
                      "components": ["10^4000*10^4000*x0"]})
    code, out, err = run(capsys, "derive", "--map", src, "--order", "2")
    assert code == 2 and out == "" and "more than 4300 digits" in err


def test_derivative_of_4001_digit_exponent_exits_two(tmp_path, capsys):
    # The second derivative's coefficient N*(N-1) has 8,001 digits.
    src = write_json(tmp_path / "map.json",
                     {"base": "poly", "dom": 1, "cod": 1,
                      "components": ["x0^" + "1" * 4001]})
    code, out, err = run(capsys, "derive", "--map", src, "--order", "2")
    assert code == 2 and out == "" and "more than 4300 digits" in err


def test_compose_constant_into_power_over_digit_limit_exits_two(tmp_path,
                                                                capsys):
    first, second = (write_json(tmp_path / f"{name}.json",
                                {"base": "elementary", "dom": 1, "cod": 1,
                                 "components": [component]})
                     for name, component in (("first", "2"),
                                             ("second", "x0^20000")))
    code, out, err = run(capsys, "compose", "--first", first,
                         "--second", second)
    assert code == 2 and out == "" and "more than 4300 digits" in err


def test_eval_value_over_digit_limit_exits_two(tmp_path, capsys):
    src = write_json(tmp_path / "map.json",
                     {"base": "poly", "dom": 1, "cod": 1,
                      "components": ["10^4000*x0"]})
    tower = str(tmp_path / "tower.json")
    assert run(capsys, "derive", "--map", src, "--order", "0",
               "--out", tower)[0] == 0
    code, out, err = run(capsys, "eval", "--seq", tower, "--term", "0",
                         "--point", "1" + "0" * 400)
    assert code == 2 and out == "" and "more than 4300 digits" in err


def test_empty_tower_file_exits_two(tmp_path, capsys):
    src = write_json(tmp_path / "tower.json",
                     {"base": "poly", "dom": 1, "cod": 1, "order": -1,
                      "terms": []})
    for argv in (["eval", "--seq", src, "--term", "0", "--point", "1"],
                 ["check", "--input", src]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "order -1, below 0" in err


def test_derive_long_flat_poly_sum(tmp_path, capsys):
    component = " + ".join(f"x0^{e}" for e in range(2000))
    src = write_json(tmp_path / "map.json",
                     {"base": "poly", "dom": 1, "cod": 1,
                      "components": [component]})
    start = time.perf_counter()
    code, out, _ = run(capsys, "derive", "--map", src, "--order", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    printed = json.loads(out)["terms"][0]["components"][0]
    assert printed.startswith("x0^1999 + x0^1998 + ")
    assert printed.endswith(" + x0 + 1")


def test_eval_refuses_a_point_coordinate_over_the_digit_limit(tmp_path,
                                                              capsys):
    # Fraction("1e99999999") would first build a power of ten of 10^8
    # digits; a coordinate past 10^+-4300 could not be printed anyway.
    src = write_json(tmp_path / "map.json",
                     {"base": "poly", "dom": 1, "cod": 1,
                      "components": ["x0"]})
    tower = str(tmp_path / "tower.json")
    assert run(capsys, "derive", "--map", src, "--order", "0",
               "--out", tower)[0] == 0
    for point in ("1e99999999", "-2.5E-99999999", "1e4300", "1e-4301",
                  "1" * 4000 + "e-8301", "0.001e4303"):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--seq", tower, "--term", "0",
                             "--point=" + point)
        assert time.perf_counter() - start < 3.0
        assert code == 2 and out == ""
        assert err == "error: point coordinate has more than 4300 digits\n"
    # at the limit the point is read as before, and zero at any exponent
    # without a power of ten
    for point, value in (("1e4299", "1" + "0" * 4299),
                         ("1e-4299", "1/1" + "0" * 4299), ("0e5000", "0"),
                         ("-0.0e99999999", "0"), ("1_0e3", "10000"),
                         ("-.5e1", "-5")):
        start = time.perf_counter()
        code, out, _ = run(capsys, "eval", "--seq", tower, "--term", "0",
                           "--point=" + point)
        assert time.perf_counter() - start < 3.0
        assert code == 0 and json.loads(out)["value"] == [value]


@pytest.mark.parametrize("suite", ["ds", "all"])
def test_check_ds_below_order_one_exits_two(tmp_path, capsys, suite):
    """A DS battery on an order-0 tower has no instance to check, so it is
    refused rather than passed, for a map file and a tower file alike."""
    tower = str(tmp_path / "tower.json")
    assert run(capsys, "derive", "--map", fx("map_square.json"),
               "--order", "0", "--out", tower)[0] == 0
    for argv in (["--input", fx("map_square.json"), "--order", "0"],
                 ["--input", tower]):
        code, out, err = run(capsys, "check", "--suite", suite, *argv)
        assert (code, out) == (2, "")
        assert err == "error: DS battery needs a tower of order >= 1\n"


def poly_file(path, dom, cod):
    return write_json(path, {"base": "poly", "dom": dom, "cod": cod,
                             "components": ["x0"] * cod})


def test_width_guard_refuses_a_wide_term(tmp_path, capsys):
    """A file whose widest term (dom * 2^order inputs) or whose cod is over
    the width guard is refused before a tower is built: the structural
    maps the checks build take memory quadratic in the width."""
    wide = poly_file(tmp_path / "wide.json", 16000, 1)
    tall = poly_file(tmp_path / "tall.json", 1, 1025)
    square = fx("map_square.json")
    tower = write_json(tmp_path / "tower.json", {
        "base": "poly", "dom": 1025, "cod": 1, "order": 0,
        "terms": [{"base": "poly", "dom": 1025, "cod": 1,
                   "components": ["x0"]}]})
    for argv in (["check", "--input", wide, "--suite", "ds", "--order", "1"],
                 ["check", "--input", tower, "--suite", "ds"],
                 ["derive", "--map", wide, "--order", "0"],
                 ["derive", "--map", tall, "--order", "0"],
                 ["compose", "--first", wide, "--second", square],
                 ["compose", "--first", square, "--second", tall],
                 ["faa", "--inner", wide, "--outer", square, "--n", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "over the width guard (1024); pass --allow-large" in err


def test_width_guard_bounds_the_widest_term(tmp_path, capsys):
    """The guard reads the widest term at the requested order, and
    --allow-large lifts it."""
    src = poly_file(tmp_path / "map.json", 512, 1)
    assert run(capsys, "derive", "--map", src, "--order", "1")[0] == 0
    code, out, err = run(capsys, "derive", "--map", src, "--order", "2")
    assert (code, out) == (2, "")
    assert err == ("error: " + src + " has terms of 512 * 2^2 inputs and 1 "
                   "outputs, over the width guard (1024); pass --allow-large\n")
    assert run(capsys, "derive", "--map", src, "--order", "2",
               "--allow-large")[0] == 0
    assert run(capsys, "derive", "--map", poly_file(tmp_path / "tall.json",
                                                    1, 1024),
               "--order", "0")[0] == 0


def test_check_json_run_object(capsys):
    """The run object names the checked tower, lifted at --order, and the
    --seed and --tolerance given; text output has no such line."""
    code, out, _ = run(capsys, "check", "--input", fx("map_sin.json"),
                       "--suite", "ds", "--order", "2", "--seed", "7",
                       "--tolerance", "1e-6")
    assert code == 0
    assert json.loads(out)["run"] == {"base": "elementary", "dom": 1,
                                      "cod": 1, "order": 2, "seed": 7,
                                      "tolerance": 1e-6}
    code, out, _ = run(capsys, "check", "--input", fx("map_sin.json"),
                       "--suite", "ds", "--order", "2", "--format", "text")
    assert (code, out) == (0, "ds_primed: PASS (8/8)\n"
                              "ds_unprimed: PASS (6/6)\nPASS\n")


def test_width_guard_covers_eval(tmp_path, capsys):
    """eval reads a tower only if its widest term is within the guard, as
    check does, and --allow-large lifts it: term 11 of this order-11
    tower has 2,048 inputs."""
    tower = write_json(tmp_path / "tower.json", {
        "base": "poly", "dom": 1, "cod": 1, "order": 11,
        "terms": [{"base": "poly", "dom": 1 << n, "cod": 1,
                   "components": ["0"]} for n in range(12)]})
    for argv in (["eval", "--seq", tower, "--term", "0", "--point", "1"],
                 ["check", "--input", tower, "--suite", "ds"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == ("error: " + tower + " has terms of 1 * 2^11 inputs "
                       "and 1 outputs, over the width guard (1024); "
                       "pass --allow-large\n")
    code, out, _ = run(capsys, "eval", "--seq", tower, "--term", "0",
                       "--point", "1", "--allow-large")
    assert code == 0
    assert json.loads(out) == {"term": 0, "point": ["1"], "value": ["0"]}


HUGE = 10 ** 20     # past every width guard, and too wide to pack


def test_huge_declared_dom_exits_two_before_parsing(tmp_path, capsys):
    """A map or tower file that declares a dom too large to pack is refused
    before any component is parsed, with or without --allow-large."""
    huge = write_json(tmp_path / "huge.json", {
        "base": "poly", "dom": HUGE, "cod": 1, "components": ["x0^2"]})
    square = fx("map_square.json")
    term = {"base": "poly", "dom": HUGE, "cod": 1, "components": ["x0^2"]}
    wide_term = write_json(tmp_path / "tower1.json", {
        "base": "poly", "dom": 1, "cod": 1, "order": 1,
        "terms": [{"base": "poly", "dom": 1, "cod": 1,
                   "components": ["x0^2"]}, term]})
    wide = write_json(tmp_path / "tower0.json", {
        "base": "poly", "dom": HUGE, "cod": 1, "order": 0, "terms": [term]})
    for argv in (["derive", "--map", huge],
                 ["compose", "--first", square, "--second", huge],
                 ["check", "--input", huge],
                 ["faa", "--inner", huge, "--outer", square, "--n", "1"],
                 ["check", "--input", wide_term],
                 ["check", "--input", wide],
                 ["eval", "--seq", wide_term, "--term", "0", "--point", "1"],
                 ["eval", "--seq", wide, "--term", "0", "--point", "1"]):
        for large in ([], ["--allow-large"]):
            code, out, err = run(capsys, *argv, *large)
            assert (code, out) == (2, ""), argv + large
            assert err.endswith(f" has {HUGE} inputs, over the limit of "
                                "1048576\n"), err


# Values a mutated fixture may carry in place of a field or a list item:
# each JSON type, integers past every width limit, component texts that
# no grammar reads, and the base names.
POOL = [None, True, False, 1, -1, HUGE, 2 ** 60, 1e308, "", "x9", "1/0",
        "x0^-1", [], {}, "poly", "elementary"]
MAP_FILES = sorted(n for n in os.listdir(FIXTURES) if n.startswith("map_"))
SEQ_FILES = sorted(n for n in os.listdir(FIXTURES)
                   if n.endswith(".json") and not n.startswith("map_"))
# Each subcommand's file flags, the fixtures they read, and cheap options.
MUTATED_COMMANDS = {
    "derive": (["--map"], MAP_FILES, ["--order", "1"]),
    "compose": (["--first", "--second"], MAP_FILES, ["--order", "1"]),
    "faa": (["--inner", "--outer"], MAP_FILES, ["--n", "1"]),
    "check": (["--input"], MAP_FILES + SEQ_FILES,
              ["--suite", "ds", "--order", "1"]),
    "eval": (["--seq"], SEQ_FILES, ["--term", "0"]),
}


def containers(obj):
    """Every non-empty dict and list inside obj, obj included."""
    out = [obj] if obj else []
    for child in obj.values() if isinstance(obj, dict) else obj:
        if isinstance(child, (dict, list)):
            out += containers(child)
    return out


@st.composite
def mutated_fixture(draw, names):
    """A fixture and its copy with one or two mutations: a field deleted, a
    list item dropped or repeated, or a value set from POOL."""
    name = draw(st.sampled_from(names))
    with open(fx(name), encoding="utf-8") as fh:
        obj = json.load(fh)
    for _ in range(draw(st.integers(1, 2))):
        node = draw(st.sampled_from(containers(obj)))
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node)))
            action = draw(st.sampled_from(["drop", "set"]))
        else:
            key = draw(st.integers(0, len(node) - 1))
            action = draw(st.sampled_from(["drop", "repeat", "set"]))
        if action == "drop":
            del node[key]
        elif action == "repeat":
            node.insert(key, node[key])
        else:
            node[key] = draw(st.sampled_from(POOL))
    return name, obj


@st.composite
def mutated_invocations(draw):
    command = draw(st.sampled_from(sorted(MUTATED_COMMANDS)))
    flags, names, options = MUTATED_COMMANDS[command]
    return command, [(flag, draw(mutated_fixture(names)))
                     for flag in flags], options


@settings(max_examples=200, deadline=None)
@given(mutated_invocations())
def test_mutated_fixtures_keep_the_exit_code_contract(invocation):
    """Every mutated input exits 0, 1 or 2 with no exception escaping, and
    two runs write the same stdout."""
    command, files, options = invocation
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *options]
        for n, (flag, (name, obj)) in enumerate(files):
            argv += [flag, write_json(pathlib.Path(tmp, f"{n}.json"), obj)]
            if command == "eval":
                with open(fx(name), encoding="utf-8") as fh:
                    dom = json.load(fh)["dom"]
                argv.append("--point=" + ",".join(["1"] * dom))
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            runs.append(out.getvalue())
        assert runs[0] == runs[1], argv
