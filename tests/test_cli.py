"""CLI subcommands: outputs, exit codes, determinism."""

import json
import os

import pytest

from dseq.cli import main
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


def test_order_guard(capsys):
    code, _, err = run(capsys, "derive", "--map", fx("map_square.json"),
                       "--order", "5")
    assert code == 2 and "guard" in err
    code, out, _ = run(capsys, "derive", "--map", fx("map_square.json"),
                       "--order", "5", "--allow-large")
    assert code == 0
    assert json.loads(out)["order"] == 5


def test_order_guard_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DSEQ_MAX_ORDER", "5")
    code, _, _ = run(capsys, "derive", "--map", fx("map_square.json"),
                     "--order", "5")
    assert code == 0
    monkeypatch.setenv("DSEQ_MAX_ORDER", "walnut")
    code, _, err = run(capsys, "derive", "--map", fx("map_square.json"))
    assert code == 2 and "DSEQ_MAX_ORDER" in err


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


def test_check_all_suites_on_seq_input(capsys):
    code, out, _ = run(capsys, "check", "--input", fx("seq_square.json"),
                       "--suite", "all", "--trials", "2")
    assert code == 0
    names = [s["suite"] for s in json.loads(out)["suites"]]
    assert names == ["ds_primed", "ds_unprimed", "comonad", "coalgebra",
                     "cd", "pre_d"]


def test_check_text_format(capsys):
    code, out, _ = run(capsys, "check", "--input", fx("map_square.json"),
                       "--suite", "ds", "--format", "text")
    assert code == 0
    assert "ds_primed: PASS" in out
    assert out.rstrip().endswith("PASS")


def test_check_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"base\": \"poly\"}", encoding="utf-8")
    code, _, err = run(capsys, "check", "--input", str(bad))
    assert code == 2 and "missing field" in err


def test_check_unreadable_file(capsys):
    code, _, err = run(capsys, "check", "--input", "/definitely/not/here")
    assert code == 2 and err


def test_faa_subcommand(capsys):
    code, out, _ = run(capsys, "faa", "--inner", fx("map_square.json"),
                       "--outer", fx("map_cube.json"), "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True
    assert obj["faa"]["components"] == ["30*x0^4"]
    assert obj["iterated"]["components"] == ["30*x0^4"]


def test_faa_rejects_multivariate(capsys):
    code, _, err = run(capsys, "faa", "--inner", fx("map_prod.json"),
                       "--outer", fx("map_cube.json"), "--n", "1")
    assert code == 2 and err


def test_eval_subcommand(capsys):
    code, out, _ = run(capsys, "eval", "--seq", fx("seq_square.json"),
                       "--term", "1", "--point", "3,1/2")
    assert code == 0
    assert json.loads(out)["value"] == ["3"]


def test_eval_wrong_point_length(capsys):
    code, _, err = run(capsys, "eval", "--seq", fx("seq_square.json"),
                       "--term", "1", "--point", "3")
    assert code == 2 and "coordinates" in err


def test_eval_rejects_map_file(capsys):
    code, _, err = run(capsys, "eval", "--seq", fx("map_square.json"),
                       "--term", "0", "--point", "1")
    assert code == 2 and "sequence" in err


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


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["check", "--suite", "bogus", "--input", "x.json"])
    assert err.value.code == 2


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
        assert usage_exit_code("faa", "--inner", fx("map_square.json"),
                               "--outer", fx("map_cube.json"), "--n", "2",
                               "--tolerance", bad) == 2
        assert usage_exit_code("selftest", "--trials", "1",
                               "--tolerance", bad) == 2
    code, _, _ = run(capsys, "check", "--input", broken, "--suite", "ds",
                     "--tolerance", "0")
    assert code == 1


def test_trials_below_one_exits_two():
    for bad in ("0", "-3"):
        assert usage_exit_code("selftest", "--trials", bad) == 2
        assert usage_exit_code("check", "--input", fx("map_square.json"),
                               "--trials", bad) == 2


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
