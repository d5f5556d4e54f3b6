import json
import time

import pytest

from borelpoints.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, _, _ = run(capsys, "hp", "--partition", "1,1")
        assert code == 0

    def test_domain_error_out_of_scope(self, capsys):
        code, _, err = run(
            capsys, "classify", "--partition", "1,1", "--n", "2", "--char", "0"
        )
        assert code == 1
        assert "out of scope" in err

    def test_domain_error_inadmissible_partition(self, capsys):
        code, _, err = run(capsys, "hp", "--partition", "1,2")
        assert code == 1
        assert "weakly decreasing" in err

    def test_usage_error_missing_partition(self, capsys):
        code, _, _ = run(capsys, "hp")
        assert code == 2

    def test_usage_error_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "nonsense")
        assert exc.value.code == 2

    def test_usage_error_bad_char(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "oracle", "--partition", "0,0", "--n", "2", "--char", "6")
        assert exc.value.code == 2

    def test_feasibility_guard(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--partition", "0,0,0,0,0,0", "--n", "2", "--char", "2"
        )
        assert code == 3
        assert "search bound" in err

    def test_json_error_stream(self, capsys):
        code, out, err = run(
            capsys, "classify", "--partition", "1,1", "--n", "2", "--json"
        )
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "out of scope: c <= 1", "exit_code": 1}


class TestMalformedInput:
    """Bad JSON shapes and empty ranges are usage errors, never tracebacks."""

    def usage_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        return payload["error"]

    def test_ideal_json_missing_keys(self, capsys):
        error = self.usage_error(capsys, "check-ideal", "--ideal-json", "{}")
        assert "--ideal-json" in error

    def test_ideal_json_not_an_object(self, capsys):
        error = self.usage_error(capsys, "check-ideal", "--ideal-json", "[1]")
        assert "--ideal-json" in error

    def test_grid_cell_missing_partition(self, capsys):
        error = self.usage_error(capsys, "verify", "--grid", '[{"n":2}]')
        assert "--grid" in error

    def test_grid_not_a_list(self, capsys):
        error = self.usage_error(capsys, "verify", "--grid", '{"a":1}')
        assert "--grid" in error

    def test_tree_negative_depth(self, capsys):
        error = self.usage_error(capsys, "tree", "--codim", "2", "--depth", "-3")
        assert "--depth" in error

    def test_hp_empty_eval_range(self, capsys):
        error = self.usage_error(
            capsys, "hp", "--partition", "1,1", "--eval-from", "5", "--eval-to", "2"
        )
        assert "empty evaluation range" in error


class TestCharacteristicInput:
    """--char values are checked exactly and fast; a bad one is a usage
    error, reported as JSON under --json like any other."""

    @pytest.mark.parametrize(
        "char", ["1" + "0" * 400, "1000000000000000003"], ids=["huge", "large-prime"]
    )
    def test_rejected_as_json_usage_error(self, capsys, char):
        argv = ["check-ideal", "--gens", "x0", "--num-vars", "2", "--char", char]
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["exit_code"] == 2
        assert "--char" in payload["error"]

    def test_abbreviated_json_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--partition", "0,0", "--n", "2", "--char", "6", "--js"])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err)["exit_code"] == 2

    def test_plain_usage_text_without_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-ideal", "--gens", "x0", "--num-vars", "2", "--char", "6"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "characteristic must be 0 or a prime" in err


class TestClassifyCommand:
    def test_three_points_in_plane(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--partition", "0,0,0", "--n", "2", "--char", "0",
            "--verify", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["clause"] == "(i)(a)"
        assert payload["predicted"] == 2
        assert payload["verified"] == 2

    def test_char_two_exception(self, capsys):
        _, out, _ = run(
            capsys,
            "classify", "--partition", "0,0,0,0", "--n", "2", "--char", "2",
            "--verify", "--json",
        )
        payload = json.loads(out)
        assert payload["predicted"] == ">=3/unknown"
        assert payload["verified"] == 3


class TestEnumerationCommands:
    def test_reeves_twisted_cubic(self, capsys):
        code, out, _ = run(
            capsys, "reeves", "--partition", "1,1,1,0", "--n", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        assert len(payload["ideals"]) == 3
        gens = {tuple(map(tuple, row["generators"])) for row in payload["ideals"]}
        assert ((1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)) in gens

    def test_oracle_flags_nonstandard(self, capsys):
        _, out, _ = run(
            capsys,
            "oracle", "--partition", "0,0,0,0", "--n", "2", "--char", "2", "--json",
        )
        payload = json.loads(out)
        assert payload["count"] == 3
        flagged = {
            row["pretty"]: row["nonstandard"] for row in payload["ideals"]
        }
        assert flagged["<x0^2, x1^2>"] is True
        assert sum(flagged.values()) == 1

    def test_lex_both_outputs(self, capsys):
        _, out, _ = run(capsys, "lex", "--partition", "1,1,1,0", "--n", "3")
        assert out.splitlines() == [
            "<x0, x1^4, x1^3*x2>",
            "[[1, 0, 0, 0], [0, 4, 0, 0], [0, 3, 1, 0]]",
        ]


class TestOtherCommands:
    def test_hp_values(self, capsys):
        _, out, _ = run(capsys, "hp", "--partition", "1,1,1,0", "--json")
        payload = json.loads(out)
        assert payload["degree"] == 1
        assert payload["gotzmann_number"] == 4
        assert payload["macaulay"] == [4, 3]
        assert payload["values"]["4"] == 13

    def test_hp_ops(self, capsys):
        _, out, _ = run(
            capsys, "hp", "--partition", "1,1", "--op", "increment", "--json"
        )
        assert json.loads(out)["partition"] == [1, 1, 0]

    def test_hp_from_macaulay(self, capsys):
        _, out, _ = run(capsys, "hp", "--macaulay", "4,3", "--json")
        assert json.loads(out)["partition"] == [1, 1, 1, 0]

    def test_hp_difference_of_constant_is_domain_error(self, capsys):
        code, _, err = run(capsys, "hp", "--partition", "0,0", "--op", "difference")
        assert code == 1
        assert "zero polynomial" in err

    def test_check_ideal(self, capsys):
        _, out, _ = run(
            capsys,
            "check-ideal", "--gens", "x0^2,x1^2", "--num-vars", "3",
            "--char", "2", "--json",
        )
        payload = json.loads(out)
        assert payload["strongly_stable"] is False
        assert payload["borel_fixed"] is True
        assert payload["nonstandard"] is True
        assert payload["saturated"] is True
        assert payload["hilbert_polynomial"] == [0, 0, 0, 0]

    def test_check_ideal_json_input(self, capsys):
        _, out, _ = run(
            capsys,
            "check-ideal",
            "--ideal-json", '{"num_vars": 3, "generators": [[1,0,0],[0,3,0]]}',
            "--json",
        )
        assert json.loads(out)["hilbert_polynomial"] == [0, 0, 0]

    def test_verify_inline_grid(self, capsys):
        grid = json.dumps(
            [
                {"partition": [0, 0, 0], "n": 2},
                {"partition": [1, 1, 1, 0], "n": 3, "char": 2},
            ]
        )
        code, out, _ = run(capsys, "verify", "--grid", grid, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["checked"] == 2

    def test_tree(self, capsys):
        _, out, _ = run(capsys, "tree", "--codim", "2", "--depth", "2", "--json")
        payload = json.loads(out)
        assert payload["partition"] == [0]
        assert payload["n"] == 2
        left, right = payload["children"]
        assert left["partition"] == [0, 0] and left["n"] == 2
        assert right["partition"] == [1] and right["n"] == 3

    def test_tree_depth_cap(self, capsys):
        code, _, err = run(capsys, "tree", "--codim", "2", "--depth", "9")
        assert code == 1
        assert "cap" in err


class TestDeterminism:
    CASES = [
        ("reeves", "--partition", "1,1,1,0", "--n", "3", "--json"),
        ("oracle", "--partition", "0,0,0,0", "--n", "2", "--char", "2", "--json"),
        ("classify", "--partition", "2,2,0", "--n", "4", "--verify", "--json"),
        ("tree", "--codim", "2", "--depth", "3", "--json"),
        ("hp", "--partition", "3,1,0"),
    ]

    def test_byte_identical_reruns(self, capsys):
        for case in self.CASES:
            _, first, _ = run(capsys, *case)
            _, second, _ = run(capsys, *case)
            assert first == second, case
