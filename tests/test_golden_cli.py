"""Golden CLI output: the --json document of a fixed command set.

The expected documents live in golden_cli.json next to this file, one
record per command line with its exit code and parsed stdout.  Each run
must reproduce stdout byte for byte.  To re-record after an intended
output change, run this file as a script:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from borelpoints import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

CASES = [
    ["hp", "--partition", "1,1,1,0", "--json"],
    ["hp", "--partition", "3,1,0", "--op", "lift", "--op", "increment",
     "--eval-from", "2", "--json"],
    ["hp", "--macaulay", "4,3", "--json"],
    ["lex", "--partition", "1,1,1,0", "--n", "3", "--json"],
    ["lex", "--partition", "2,2,0", "--n", "4", "--json"],
    ["check-ideal", "--gens", "x0^2,x1^2", "--num-vars", "3", "--char", "2",
     "--json"],
    ["check-ideal", "--gens", "x0^3,x1^3,x2^3", "--num-vars", "3", "--json"],
    ["check-ideal", "--gens", "1", "--num-vars", "3", "--json"],
    ["check-ideal", "--ideal-json", '{"num_vars": 4, "generators": []}',
     "--json"],
    ["check-ideal", "--gens", "x0^2,x0*x1,x1^2,x1*x2", "--num-vars", "4",
     "--json"],
    ["check-ideal", "--gens", "x0*x3,x1*x3", "--num-vars", "4", "--json"],
    ["check-ideal", "--gens", "x0,x1^4,x1^3*x2", "--num-vars", "4", "--json"],
    ["reeves", "--partition", ",".join(["0"] * 14), "--n", "4", "--json"],
    ["reeves", "--partition", "1,1,1,0", "--n", "3", "--json"],
    ["oracle", "--partition", "0,0,0,0", "--n", "2", "--char", "2", "--json"],
    ["classify", "--partition", "2,2,0", "--n", "4", "--verify", "--json"],
    ["classify", "--partition", "0,0,0,0", "--n", "2", "--char", "2",
     "--verify", "--json"],
    ["verify", "--grid", json.dumps([
        {"partition": [0, 0, 0], "n": 2},
        {"partition": [1, 1, 1, 0], "n": 3, "char": 2},
        {"partition": [2, 2, 1, 0], "n": 4},
    ]), "--json"],
    ["tree", "--codim", "2", "--depth", "3", "--enumerate", "--json"],
    ["tree", "--codim", "3", "--depth", "2", "--json"],
]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _dump(value, indent=0):
    """JSON with one key per line but lists of plain values kept inline."""
    pad = "  " * indent
    if isinstance(value, dict) and value:
        items = [
            f"{pad}  {json.dumps(k)}: {_dump(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list) and any(isinstance(v, dict) for v in value):
        items = [f"{pad}  {_dump(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(value)


def record():
    records = []
    for argv in CASES:
        code, out = run_cli(argv)
        records.append({"argv": argv, "exit_code": code, "stdout": json.loads(out)})
    GOLDEN.write_text(_dump(records) + "\n")


def _case_id(argv):
    return " ".join(a for a in argv[:5] if a != "--json")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_recorded(golden):
    assert [rec["argv"] for rec in golden] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=[_case_id(a) for a in CASES])
def test_matches_golden(golden, index):
    expected = golden[index]
    code, out = run_cli(expected["argv"])
    assert code == expected["exit_code"]
    assert json.loads(out) == expected["stdout"]
    assert out == json.dumps(expected["stdout"], indent=2) + "\n"


# SHA-256 of the whole stdout of larger outputs, recorded from the Reeves
# walk on MonomialIdeal values (now tests/conftest.py reference_search):
# the points ladder of the bench, and a char-2 cell of four levels with a
# nonstandard ideal among its 27.
DIGESTS = [
    (
        ["reeves", "--partition", ",".join(["0"] * 18), "--n", "4", "--json"],
        "f75aa1be08edebb2c3e7f69ec479ea05622f1fce976800d81b4c8c132364e823",
    ),
    (
        ["reeves", "--partition", ",".join(["0"] * 20), "--n", "4", "--json"],
        "e041b355fe6efdf0d4bde5ad636f204945b21781da24d4b9446dd41a4164906c",
    ),
    (
        ["classify", "--partition", "3,2,2,1,0,0,0", "--n", "5", "--char", "2",
         "--verify", "--json"],
        "9c185ff34a55e5417a74b953f87c264f024f3af01fc968be946b1dd543d6cc43",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    DIGESTS,
    ids=["reeves 18 points", "reeves 20 points", "classify char 2"],
)
def test_output_digest(argv, digest):
    code, out = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


if __name__ == "__main__":
    record()
