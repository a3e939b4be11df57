"""Recorded CLI stdout: every case must reproduce its golden bytes exactly.

The files under fixtures/golden/ hold the stdout of each invocation below,
byte for byte, and the expected exit code is listed with it.  A change that
alters any of them changes user-visible output and must say so.
"""

import json
import os

import pytest

from dseq.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden")


def fx(name):
    return os.path.join(FIXTURES, name)


# name -> (exit code, argv)
CASES = {
    "derive_square": (0, ["derive", "--map", fx("map_square.json")]),
    "derive_cube": (0, ["derive", "--map", fx("map_cube.json")]),
    "derive_sin": (0, ["derive", "--map", fx("map_sin.json")]),
    "compose_square_cube": (0, ["compose", "--first", fx("map_square.json"),
                                "--second", fx("map_cube.json")]),
    "compose_sin_sin": (0, ["compose", "--first", fx("map_sin.json"),
                            "--second", fx("map_sin.json")]),
    # Exponents up to 40,000: packed exponent fields wider than 8 bits.
    "compose_pow200_order1": (0, ["compose", "--first", fx("map_pow200.json"),
                                  "--second", fx("map_pow200.json"),
                                  "--order", "1"]),
    "check_square_json": (0, ["check", "--input", fx("map_square.json"),
                              "--format", "json"]),
    "check_square_text": (0, ["check", "--input", fx("map_square.json"),
                              "--format", "text"]),
    "check_sin_json": (0, ["check", "--input", fx("map_sin.json"),
                           "--format", "json"]),
    # Both DS checkers on one order-4 elementary tower: the unprimed run
    # reads the precompositions and sampled rows the primed run kept.
    "check_sin_ds_order4_json": (0, ["check", "--input", fx("map_sin.json"),
                                     "--suite", "ds", "--order", "4",
                                     "--format", "json"]),
    # A direction-free monomial in term 1: DS.1 and DS.2 fail, each with
    # its built difference map as the witness.
    "check_corrupt_ds1_ds_json": (1, ["check", "--input",
                                      fx("corrupt_ds1.json"), "--suite", "ds",
                                      "--format", "json"]),
    "check_corrupt_ds1_ds_text": (1, ["check", "--input",
                                      fx("corrupt_ds1.json"), "--suite", "ds",
                                      "--format", "text"]),
    "check_corrupt_ds2_json": (1, ["check", "--input", fx("corrupt_ds2.json"),
                                   "--format", "json"]),
    "check_corrupt_ds2_text": (1, ["check", "--input", fx("corrupt_ds2.json"),
                                   "--format", "text"]),
    "check_corrupt_ds3_ds_json": (1, ["check", "--input",
                                      fx("corrupt_ds3.json"), "--suite", "ds",
                                      "--format", "json"]),
    "check_corrupt_ds4_ds_json": (1, ["check", "--input",
                                      fx("corrupt_ds4.json"), "--suite", "ds",
                                      "--format", "json"]),
    # Exponentials that overflow on part of the sample cloud: points where
    # both sides leave float range carry no information and are skipped.
    "check_overflow_ds3_ds_json": (1, ["check", "--input",
                                       fx("corrupt_ds3_overflow.json"),
                                       "--suite", "ds", "--format", "json"]),
    "eval_seq_square": (0, ["eval", "--seq", fx("seq_square.json"),
                            "--term", "2", "--point", "1,-2,1/3,5"]),
    # Dense cubic 2->1 and 1->1 maps with coefficients in +-3/2..+-9/2: the
    # order-3 tower written by `compose --out` is seq_dense3.json, which
    # `eval --seq` reads back.
    "compose_dense3": (0, ["compose", "--first", fx("map_dense3_first.json"),
                           "--second", fx("map_dense3_second.json")]),
    # Dense cubic 2->2 maps (every monomial of degree <= 3, coefficients in
    # +-3/2..+-9/2), written by perfbench.workloads.dense_map at seed 22:
    # every term substitutes on Kronecker integers (poly._Kron), and must
    # print what the term-by-term walk (poly._Sparse) prints.
    "compose_dense22_order3": (0, ["compose", "--first",
                                   fx("map_dense22_first.json"), "--second",
                                   fx("map_dense22_second.json"),
                                   "--order", "3"]),
    "eval_seq_dense3": (0, ["eval", "--seq", fx("seq_dense3.json"),
                            "--term", "3", "--point",
                            "1,-2,1/3,5,-3/2,2,0,1,-1,3,2/3,-1/2,1,1,-3,1/4"]),
    "selftest_42": (0, ["selftest", "--seed", "42", "--trials", "2",
                        "--format", "json"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, capsys):
    code, argv = CASES[name]
    assert main(argv) == code
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
        expected = fh.read()
    assert capsys.readouterr().out.encode("ascii") == expected


def test_check_json_names_its_input():
    """A check report opens with the run it reports on, so two inputs that
    pass alike, the poly x0^2 and the elementary sin(x0), print apart."""
    runs = {}
    for name in ("check_square_json", "check_sin_json"):
        with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
            runs[name] = fh.read()
    square, sin = runs.values()
    assert square != sin
    assert list(json.loads(square)) == ["run", "suites"]
    assert json.loads(square)["run"] == {
        "base": "poly", "dom": 1, "cod": 1, "order": 3, "seed": 42,
        "tolerance": None}
    assert json.loads(sin)["run"]["base"] == "elementary"
