import json
import os
import resource
import subprocess
import sys
import time
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borelpoints import (
    Characteristic,
    GotzmannPartition,
    MonomialIdeal,
    enumerate_borel_fixed,
    enumerate_strongly_stable,
)
from borelpoints import classify, cli
from borelpoints.cli import (
    _dumps,
    _IdealRows,
    _json_pieces,
    _sorted_ideals,
    main,
)
from borelpoints.borel import is_strongly_stable
from borelpoints.lex import lex_ideal, lex_ideal_from_counts

from conftest import mini_grid


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

    @pytest.mark.parametrize("token", ["x0^", "x0^y", "y1", "x7"])
    def test_gens_malformed_token(self, capsys, token):
        error = self.usage_error(
            capsys, "check-ideal", "--gens", f"x1,{token}", "--num-vars", "2"
        )
        assert "--gens" in error
        assert repr(token) in error


class TestSizeGuard:
    """A Gotzmann number too large to build a partition for, more
    variables than check-ideal, lex and the walk's entry points take, or
    more hp evaluation points than the default range can have trips the
    size guard (exit 3) before anything is allocated."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-ideal", "--gens", "x0^2,x1*x2", "--num-vars", "10"],
            ["hp", "--macaulay", "100000000000"],
        ],
        ids=["check-ideal", "hp"],
    )
    def test_json_guard_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["exit_code"] == 3
        assert "Gotzmann number" in payload["error"]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["check-ideal", "--gens", "x0", "--num-vars", "100000"],
                "100000 variables, above 200",
            ),
            (
                [
                    "check-ideal",
                    "--ideal-json",
                    '{"num_vars": 100000, "generators": []}',
                ],
                "100000 variables, above 200",
            ),
            (["lex", "--partition", "0", "--n", "100000"], "100001 variables, above 200"),
            (["lex", "--counts", ",".join(["1"] * 10000)], "10001 variables, above 200"),
            (
                ["hp", "--partition", "0", "--eval-to", "100000000"],
                "100000001 evaluation points, above 100003",
            ),
            # the peel of the Hilbert polynomial stops at its first part
            # above the bound; peeling every part took over 100 s
            (
                ["check-ideal", "--gens", "x0^3,x1^3,x2^3", "--num-vars", "32"],
                "Gotzmann number above 100000",
            ),
            # finite-dimensional quotient, so no Gotzmann number to trip:
            # unguarded, this takes about 6 s
            (
                ["check-ideal", "--gens", "x0,x1,x2^10000000", "--num-vars", "3"],
                "generator degrees sum to 10000002, above 100000",
            ),
            # unguarded, a MemoryError traceback after 27 s under 1.5 GB
            (["reeves", "--partition", "0", "--n", "20000"], "20001 variables, above 200"),
            # unguarded, still testing stability after 30 s
            (
                ["classify", "--partition", "0", "--n", "800", "--verify"],
                "801 variables, above 200",
            ),
            # every cell is checked before the first one runs
            (
                ["verify", "--grid", '[{"partition": [0], "n": 2}, {"partition": [0], "n": 800}]'],
                "801 variables, above 200",
            ),
            # the deepest nodes lie in projective space of dimension codim + depth
            (
                ["tree", "--codim", "800", "--depth", "2", "--enumerate"],
                "803 variables, above 200",
            ),
            # inside the depth cap and the variable bound: unguarded, a
            # walk at each of 8191 nodes takes about 19 s
            (
                ["tree", "--codim", "187", "--depth", "12", "--enumerate"],
                "8191 nodes times 200 variables, above 300000",
            ),
            # unguarded, forced past the exhaustive search's own bound, the
            # search's table of monomials runs out of a 1 GiB address space
            (
                ["oracle", "--partition", "0", "--n", "1100", "--force"],
                "1101 variables, above 200",
            ),
            # the square-free quadrics x_i x_j in 100 variables: unguarded,
            # the Hilbert numerator's pivot loop takes over 14 s
            (
                [
                    "check-ideal",
                    "--gens",
                    ",".join(f"x{i}*x{j}" for i in range(100) for j in range(i + 1, 100)),
                    "--num-vars",
                    "100",
                ],
                "Hilbert numerator above 100000000 steps",
            ),
        ],
        ids=[
            "check-ideal-num-vars",
            "check-ideal-json",
            "lex-n",
            "lex-counts",
            "hp",
            "check-ideal-gotzmann",
            "check-ideal-degree",
            "reeves",
            "classify-verify",
            "verify-grid",
            "tree-enumerate",
            "tree-enumerate-nodes",
            "oracle-force",
            "check-ideal-numerator",
        ],
    )
    def test_guard_trips_before_any_work(self, argv, error):
        # each input would run for minutes or take gigabytes unguarded; the
        # child's address space is capped at 512 MiB, so a missing guard
        # fails here instead of exhausting memory
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "borelpoints", *argv, "--json"],
            capture_output=True,
            env=checkout_env(),
            timeout=120,
            preexec_fn=limit_memory,
        )
        assert time.perf_counter() - start < 30
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert proc.stdout == b""
        assert "Traceback" not in err, err
        assert json.loads(err) == {
            "error": f"size bound exceeded: {error}",
            "exit_code": 3,
        }

    def test_variable_bound_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_NUM_VARS", 3)
        cases = [
            (["check-ideal", "--gens", "x0", "--num-vars"], "3", "4"),
            (["lex", "--partition", "0", "--n"], "2", "3"),
            (["lex", "--counts"], "1,1", "1,1,1"),
            (["reeves", "--partition", "0", "--n"], "2", "3"),
            (["oracle", "--partition", "0", "--n"], "2", "3"),
            (["classify", "--partition", "0", "--verify", "--n"], "2", "3"),
            (["verify", "--grid"], '[{"partition": [0], "n": 2}]', '[{"partition": [0], "n": 3}]'),
            (["tree", "--codim", "2", "--enumerate", "--depth"], "0", "1"),
        ]
        for argv, at, above in cases:
            assert run(capsys, *argv, at)[0] == 0, argv
            code, _, err = run(capsys, *argv, above)
            assert code == 3 and "4 variables, above 3" in err, argv
        # without enumerating, classify and tree build no ideal
        assert run(capsys, "classify", "--partition", "0", "--n", "3")[0] == 0
        assert run(capsys, "tree", "--codim", "2", "--depth", "1")[0] == 0
        # above the bound the ideal is not built, so its malformed
        # generator is not reported
        ideal_json = '{"num_vars": %d, "generators": [[1, 0, 0]]}'
        assert run(capsys, "check-ideal", "--ideal-json", ideal_json % 3)[0] == 0
        code, _, err = run(capsys, "check-ideal", "--ideal-json", ideal_json % 4)
        assert code == 3 and "4 variables, above 3" in err

    def test_grid_checked_before_any_cell_runs(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "MAX_NUM_VARS", 3)
        monkeypatch.setattr(classify, "verify_classification", forbidden)
        grid = '[{"partition": [0], "n": 2}, {"partition": [0], "n": 3}]'
        code, _, err = run(capsys, "verify", "--grid", grid)
        assert code == 3 and "4 variables, above 3" in err

    def test_degree_sum_bound_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DEGREE_SUM", 4)
        argv = "check-ideal", "--num-vars", "3", "--gens"
        assert run(capsys, *argv, "x0*x1,x2^2")[0] == 0
        code, _, err = run(capsys, *argv, "x0*x1,x2^3")
        assert code == 3 and "degrees sum to 5, above 4" in err
        # the degrees of the generators as given, before minimalization
        code, _, err = run(capsys, *argv, "x0,x0*x1^4")
        assert code == 3 and "degrees sum to 6, above 4" in err
        ideal_json = '{"num_vars": 3, "generators": [[1, 1, 0], [0, 0, %d]]}'
        assert run(capsys, "check-ideal", "--ideal-json", ideal_json % 2)[0] == 0
        code, _, err = run(capsys, "check-ideal", "--ideal-json", ideal_json % 3)
        assert code == 3 and "degrees sum to 5, above 4" in err

    def test_evaluation_range_bound_is_inclusive(self, capsys, monkeypatch):
        # the bound is MAX_GOTZMANN_NUMBER + 3, the most points the default
        # range 0..r+2 can have
        monkeypatch.setattr(cli, "MAX_GOTZMANN_NUMBER", 5)
        assert run(capsys, "hp", "--partition", "0", "--eval-to", "7")[0] == 0
        code, _, err = run(capsys, "hp", "--partition", "0", "--eval-to", "8")
        assert code == 3 and "9 evaluation points, above 8" in err
        argv = "hp", "--partition", "0", "--eval-from", "-3", "--eval-to", "4"
        assert run(capsys, *argv)[0] == 0


class TestSaturated:
    """check-ideal reports whether I equals its saturation by the
    irrelevant ideal (MonomialIdeal.is_saturated), after the Hilbert
    polynomial, and past cli.MAX_SATURATION_WORK steps exits 3."""

    def test_borel_fixed_saturation_is_not_enough(self, capsys):
        # (x0 x3, x1 x3) = (x3) and (x0, x1) intersected is saturated,
        # though not equal to I : x3^infinity
        code, out, _ = run(capsys, "check-ideal", "--gens", "x0*x3,x1*x3", "--num-vars", "4")
        assert code == 0 and "saturated         True" in out

    def test_budget_is_inclusive(self, capsys, monkeypatch):
        # 14 steps, counted in TestIsSaturated::test_budget_is_inclusive
        argv = "check-ideal", "--gens", "x0^2*x1,x0*x1^2", "--num-vars", "2"
        monkeypatch.setattr(cli, "MAX_SATURATION_WORK", 14)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "saturated         False" in out
        monkeypatch.setattr(cli, "MAX_SATURATION_WORK", 13)
        code, _, err = run(capsys, *argv, "--json")
        assert code == 3
        assert json.loads(err) == {
            "error": "size bound exceeded: saturation test above 13 steps",
            "exit_code": 3,
        }

    def test_hilbert_polynomial_comes_first(self, capsys, monkeypatch):
        # an ideal the Gotzmann-number guard refuses is refused by it, as
        # before the saturation test existed
        monkeypatch.setattr(cli, "MAX_SATURATION_WORK", 0)
        code, _, err = run(
            capsys, "check-ideal", "--gens", "x0^3,x1^3,x2^3", "--num-vars", "32"
        )
        assert code == 3 and "Gotzmann number above" in err


class TestNumeratorBudget:
    """check-ideal stops the Hilbert numerator past
    cli.MAX_NUMERATOR_WORK steps (MonomialIdeal.hilbert_numerator) and
    exits 3."""

    def test_budget_is_inclusive(self, capsys, monkeypatch):
        # 24 steps, counted in TestNumeratorBudget::test_budget_is_inclusive
        # of the monomial ideal tests
        argv = "check-ideal", "--gens", "x0^2*x1,x0*x1^2", "--num-vars", "2"
        monkeypatch.setattr(cli, "MAX_NUMERATOR_WORK", 24)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "hilbert poly      (0, 0)" in out
        monkeypatch.setattr(cli, "MAX_NUMERATOR_WORK", 23)
        code, _, err = run(capsys, *argv, "--json")
        assert code == 3
        assert json.loads(err) == {
            "error": "size bound exceeded: Hilbert numerator above 23 steps",
            "exit_code": 3,
        }

    def test_power_pivot_needs_no_deep_stack(self):
        # pivoting on x0 alone nested 999 calls deep and ended in a
        # RecursionError traceback; a subprocess has the default limit
        proc = subprocess.run(
            [sys.executable, "-m", "borelpoints", "check-ideal", "--gens",
             "x0^1000,x0^999*x1", "--num-vars", "3", "--json"],
            capture_output=True,
            env=checkout_env(),
            timeout=120,
        )
        err = proc.stderr.decode()
        assert proc.returncode == 0 and "Traceback" not in err, err
        payload = json.loads(proc.stdout)
        assert payload["stabilization_degree"] == 999
        assert payload["hilbert_polynomial"] == [1] * 999 + [0]


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


    def test_verify_char_p_past_the_oracle_guard(self, capsys):
        # characteristic p is enumerated by the Reeves walk, which has no
        # guard: this cell (n = 4) lies past the exhaustive search's
        code, out, _ = run(
            capsys,
            "classify", "--partition", "2,1,0,0", "--n", "4", "--char", "2",
            "--verify", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] == 4
        partition = GotzmannPartition((2, 1, 0, 0))
        oracle = enumerate_borel_fixed(partition, 4, Characteristic(2), force=True)
        rows = {tuple(map(tuple, row["generators"])) for row in payload["ideals"]}
        assert rows == {I.gens for I in oracle}


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

    def test_hp_evaluates_on_the_conjugate_side(self, capsys, monkeypatch):
        # GotzmannPartition.evaluate sums over all r parts, which makes the
        # default range 0..r+2 cost r^2; hp evaluates the d + 1 Macaulay
        # parts instead
        def forbidden(self, t):
            raise AssertionError("hp must evaluate the Macaulay partition")

        monkeypatch.setattr(GotzmannPartition, "evaluate", forbidden)
        _, out, _ = run(
            capsys, "hp", "--partition", "1,1,1,0", "--eval-from", "-3", "--json"
        )
        values = json.loads(out)["values"]
        assert values["-3"] == -8
        assert values["4"] == 13

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

    def test_tree_enumerates_char_p(self, capsys):
        _, out, _ = run(
            capsys,
            "tree", "--codim", "2", "--depth", "2", "--enumerate", "--char", "2",
            "--json",
        )
        nodes, todo = [], [json.loads(out)]
        while todo:
            node = todo.pop()
            nodes.append(node)
            todo.extend(node["children"])
        assert len(nodes) == 7
        p2 = Characteristic(2)
        for node in nodes:
            partition = GotzmannPartition(tuple(node["partition"]))
            oracle = enumerate_borel_fixed(partition, node["n"], p2, force=True)
            assert node["verified"] == len(oracle), node

    def test_tree_depth_ceiling(self):
        # depth 20 would build 2^21 nodes.  The child's address space is
        # capped at 512 MiB, so a broken ceiling fails here instead of
        # exhausting memory
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

        for depth in ("13", "20", "1000000000"):
            argv = ["tree", "--codim", "2", "--depth", depth]
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "borelpoints", *argv, "--json"],
                capture_output=True,
                env=checkout_env(),
                timeout=120,
                preexec_fn=limit_memory,
            )
            assert time.perf_counter() - start < 30
            err = proc.stderr.decode()
            assert proc.returncode == 3, err
            assert proc.stdout == b""
            assert "Traceback" not in err, err
            assert json.loads(err) == {
                "error": f"depth {depth} exceeds the cap 12",
                "exit_code": 3,
            }


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


def outcome(capsys, argv):
    """The exit code, stdout and stderr of main(argv), a usage error's
    SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    # main builds its parser once, so no call may leave anything in it
    # that changes a later call: a run of calls, usage errors between
    # them, gives what each call gives on a parser of its own
    CALLS = [
        ("reeves", "--partition", "1,1,1,0", "--n", "3", "--json"),
        ("oracle", "--partition", "0,0", "--n", "2", "--char", "6", "--json"),
        ("classify", "--partition", "2,2,0", "--n", "4", "--verify"),
        ("tree", "--codim", "2"),
        ("hp", "--partition", "3,1,0", "--op", "lift", "--json"),
        ("hp", "--partition", "3,1,0", "--json"),
    ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_match_fresh_parsers(self, capsys):
        shared = [outcome(capsys, argv) for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            cli.build_parser.cache_clear()
            fresh.append(outcome(capsys, argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 0]
        assert "--char" in json.loads(shared[1][2])["error"]
        assert shared[3][2].startswith("usage: borelpoints tree")
        assert shared[4][1] != shared[5][1]  # the appended --op is not kept


# JSON scalars, with strings and keys full of characters that need escapes
_escapes = st.sampled_from('"\\/\n\t\r\x00\x1f\x7f\u00e9\u2028\U0001f600')
_text = st.text(st.one_of(_escapes, st.characters()), max_size=6)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(),
    st.integers(min_value=2**64),
    st.floats(),
    _text,
)
# int vectors, and lists of ints and bools that compare equal to them
_vectors = st.lists(st.integers(-2, 2), min_size=1, max_size=4)
_int_like = st.lists(st.one_of(st.integers(-1, 2), st.booleans()), max_size=4)
_trees = st.recursive(
    st.one_of(_scalars, _vectors, _vectors.map(tuple), _int_like),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=24,
)


class TestDumps:
    """_dumps is json.dumps(indent=2) as nested at a depth, and
    _json_pieces joins to json.dumps(indent=2), byte for byte."""

    @staticmethod
    def assert_renders(value):
        assert _dumps(value) == json.dumps(value, indent=2)
        nested = json.dumps({"a": [value]}, indent=2)
        assert nested == '{\n  "a": [\n    ' + _dumps(value, 2) + "\n  ]\n}"
        doc = {"a": value, "b": [value]}
        assert "".join(_json_pieces(doc)) == json.dumps(doc, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(_trees)
    @example([[1, 0], [True, False], (1, 0), [1.0, 0], {"a": [1, 0]}])
    @example({"": {}, "e": [], "t": (), "z": [0, -0.0, 0.0, False]})
    def test_matches_json_dumps(self, tree):
        self.assert_renders(tree)

    @settings(max_examples=100, deadline=None)
    @given(_vectors, _trees)
    def test_vector_at_two_depths(self, vector, tree):
        doc = {"top": vector, "nested": [[vector, tree], {"v": tuple(vector)}]}
        self.assert_renders(doc)
        assert "".join(_json_pieces(doc)) == json.dumps(doc, indent=2)

    def test_non_string_keys(self):
        doc = {1: 0, True: [1], None: (), 2.5: {}, "x": {0: [0]}}
        self.assert_renders(doc)


def plain_row(ideal, ch=None):
    """The row of an ideal as plain JSON data."""
    row = {
        "num_vars": ideal.num_vars,
        "generators": [list(g) for g in ideal.gens],
        "pretty": str(ideal),
    }
    if ch is not None:
        ss = is_strongly_stable(ideal)
        row["strongly_stable"] = ss
        row["nonstandard"] = not ss
    return row


class TestIdealRows:
    """Every row's "pretty" is str(ideal), with the monomial names shared
    across the ideals of one call, and the rows render as json.dumps
    renders their plain data, at every depth."""

    def assert_rows(self, ideals, ch=None):
        ideals = _sorted_ideals(ideals)
        rows = _IdealRows(ideals, ch)
        assert list(rows.pretty()) == [str(i) for i in ideals]
        plain = [plain_row(i, ch) for i in ideals]
        for depth in range(4):
            assert "".join(rows.pieces(depth)) == _dumps(plain, depth)
        for ideal, row in zip(ideals, plain):
            one = _IdealRows([ideal], ch, single=True)
            for depth in range(3):
                assert "".join(one.pieces(depth)) == _dumps(row, depth)

    @pytest.mark.parametrize("k", [14, 16])
    def test_points_ladder(self, k):
        self.assert_rows(enumerate_strongly_stable(GotzmannPartition((0,) * k), 4))

    def test_mini_grid_walks(self):
        ideals = set()
        for partition, n in mini_grid():
            ideals |= enumerate_strongly_stable(partition, n)
        self.assert_rows(ideals)
        self.assert_rows(ideals, Characteristic(0))

    def test_zero_and_unit(self):
        zero, unit = MonomialIdeal.zero(3), MonomialIdeal.unit(3)
        self.assert_rows([zero, unit])
        self.assert_rows([zero, unit], Characteristic(2))
        assert list(_IdealRows([zero, unit]).pretty()) == ["<0>", "<1>"]

    def test_no_ideals(self):
        self.assert_rows([])
        payload = {"count": 0, "ideals": _IdealRows([], Characteristic(3))}
        assert "".join(_json_pieces(payload)) == json.dumps(
            {"count": 0, "ideals": []}, indent=2
        )


class TestSortedIdeals:
    # _sorted_ideals orders by gens alone: every caller sorts the ideals
    # of one ring, where that is the order by (num_vars, gens)

    def test_gens_order_is_the_ring_order_on_every_caller(self):
        outputs = [  # reeves
            enumerate_strongly_stable(GotzmannPartition((0,) * k), 4)
            for k in (14, 16)
        ]
        outputs += [enumerate_strongly_stable(p, n) for p, n in mini_grid()]
        outputs += [  # oracle
            enumerate_borel_fixed(GotzmannPartition(parts), n, Characteristic(p))
            for parts, n in [((0,) * 4, 2), ((1, 1, 0), 3), ((0,) * 5, 3)]
            for p in (0, 2, 3)
        ]
        # classify --verify
        outputs += [classify.count_borel_fixed(c)[1] for c in classify.default_grid()]
        assert sum(map(len, outputs)) > 2000
        for ideals in outputs:
            assert len({I.num_vars for I in ideals}) <= 1
            assert _sorted_ideals(ideals) == sorted(
                ideals, key=attrgetter("num_vars", "gens")
            )


def oracle_rows(partition, n, p):
    ch = Characteristic(p)
    ideals = enumerate_borel_fixed(GotzmannPartition(partition), n, ch)
    return [plain_row(i, ch) for i in _sorted_ideals(ideals)]


def reeves_rows(partition, n, ch=None):
    ideals = enumerate_strongly_stable(GotzmannPartition(partition), n)
    return [plain_row(i, ch) for i in _sorted_ideals(ideals)]


def ideal_rows(gens, num_vars):
    return [plain_row(MonomialIdeal.from_generators(gens, num_vars))]


# every subcommand that lists ideals, where its rows sit and what they
# hold: rows at depth 2 (reeves, oracle, classify --verify), 1
# (check-ideal) and 0 (lex)
STREAMED = [
    (("reeves", "--partition", ",".join(["0"] * 14), "--n", "4"),
     "ideals", lambda: reeves_rows((0,) * 14, 4)),
    (("reeves", "--partition", "1,1,1,0", "--n", "3"),
     "ideals", lambda: reeves_rows((1, 1, 1, 0), 3)),
    (("oracle", "--partition", "0,0,0,0", "--n", "2", "--char", "2"),
     "ideals", lambda: oracle_rows((0, 0, 0, 0), 2, 2)),
    (("oracle", "--partition", "1,1,0", "--n", "3", "--char", "3"),
     "ideals", lambda: oracle_rows((1, 1, 0), 3, 3)),
    (("oracle", "--partition", "1,1,0", "--n", "3"),
     "ideals", lambda: oracle_rows((1, 1, 0), 3, 0)),
    (("classify", "--partition", "0,0,0,0", "--n", "2", "--char", "2", "--verify"),
     "ideals", lambda: oracle_rows((0, 0, 0, 0), 2, 2)),
    (("classify", "--partition", "2,2,0", "--n", "4", "--verify"),
     "ideals", lambda: reeves_rows((2, 2, 0), 4, Characteristic(0))),
    (("check-ideal", "--ideal-json", '{"num_vars": 4, "generators": []}'),
     "ideal", lambda: ideal_rows([], 4)),
    (("check-ideal", "--gens", "1", "--num-vars", "3"),
     "ideal", lambda: ideal_rows([(0, 0, 0)], 3)),
    (("check-ideal", "--gens", "x0^2,x1^2", "--num-vars", "3", "--char", "2"),
     "ideal", lambda: ideal_rows([(2, 0, 0), (0, 2, 0)], 3)),
    (("lex", "--partition", "1,1,1,0", "--n", "3"),
     None, lambda: [plain_row(lex_ideal(GotzmannPartition((1, 1, 1, 0)), 3))]),
    (("lex", "--counts", "0,0"),
     None, lambda: [plain_row(lex_ideal_from_counts((0, 0)))]),
]


class TestStreamedJson:
    """--json prints json.dumps(payload, indent=2) byte for byte, where
    the payload's rows are the plain rows of the library's ideals."""

    @pytest.mark.parametrize(
        "argv, where, rows", STREAMED, ids=[" ".join(c[0]) for c in STREAMED]
    )
    def test_matches_json_dumps(self, capsys, argv, where, rows):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        found = doc if where is None else doc[where]
        assert (found if where == "ideals" else [found]) == rows()

    def test_rows_say_nonstandard(self):
        # the oracle cases above include both kinds of row
        rows = oracle_rows((1, 1, 0), 3, 3) + oracle_rows((0, 0, 0, 0), 2, 2)
        assert {row["nonstandard"] for row in rows} == {True, False}

    def test_nothing_written_before_the_rows_are_decided(self, capsys, monkeypatch):
        # a row value that fails leaves stdout empty
        def fail(ideal):
            raise ValueError("stop")

        monkeypatch.setattr(cli, "is_strongly_stable", fail)
        code, out, err = run(
            capsys, "oracle", "--partition", "0,0,0,0", "--n", "2", "--char", "2", "--json"
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "stop"


def checkout_env():
    """The environment with this checkout's src first on PYTHONPATH, for
    a subprocess that runs the package."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestClosedPipe:
    def test_no_traceback_when_the_reader_leaves(self):
        # about 1.2 MB of JSON, far past a pipe buffer; the reader takes
        # 300 bytes and closes its end
        points = ",".join(["0"] * 20)
        proc = subprocess.Popen(
            [sys.executable, "-m", "borelpoints.cli"]
            + ["reeves", "--partition", points, "--n", "4", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=checkout_env(),
        )
        head = proc.stdout.read(300)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert head.startswith(b'{\n  "partition": [')
        assert "Traceback" not in err, err


class TestPackageEntryPoint:
    def test_python_dash_m_borelpoints(self):
        proc = subprocess.run(
            [sys.executable, "-m", "borelpoints", "hp", "--partition", "0", "--json"],
            capture_output=True,
            env=checkout_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        doc = json.loads(proc.stdout)
        assert doc["partition"] == [0] and doc["gotzmann_number"] == 1
