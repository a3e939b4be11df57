"""Recorded CLI stdout: every case must reproduce its golden bytes exactly.

The files under fixtures/golden/ hold the stdout of each invocation below,
byte for byte, and the expected exit code is listed with it.  A change that
alters any of them changes user-visible output and must say so.
"""

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
    "check_square_json": (0, ["check", "--input", fx("map_square.json"),
                              "--format", "json", "--trials", "2"]),
    "check_square_text": (0, ["check", "--input", fx("map_square.json"),
                              "--format", "text", "--trials", "2"]),
    "check_corrupt_ds2_json": (1, ["check", "--input", fx("corrupt_ds2.json"),
                                   "--format", "json", "--trials", "2"]),
    "check_corrupt_ds2_text": (1, ["check", "--input", fx("corrupt_ds2.json"),
                                   "--format", "text", "--trials", "2"]),
    "eval_seq_square": (0, ["eval", "--seq", fx("seq_square.json"),
                            "--term", "2", "--point", "1,-2,1/3,5"]),
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
