import pytest

from borelpoints import (
    CHAR0,
    Characteristic,
    GotzmannPartition,
    OutOfScopeError,
    SchemeCoordinates,
    SearchBoundError,
    count_borel_fixed,
    default_grid,
    enumerate_borel_fixed,
    enumerate_strongly_stable,
    explore_tree,
    in_three_point_family,
    partitions_up_to,
    predict,
    tree_children,
    two_point_clause,
    unique_point_clause,
    verify_classification,
)
from borelpoints import classify
from borelpoints.classify import MAX_TREE_DEPTH, MAX_TREE_WORK

from conftest import all_partitions

P2 = Characteristic(2)
P5 = Characteristic(5)


def coords(parts, n, ch=CHAR0):
    return SchemeCoordinates(GotzmannPartition(parts), n, ch)


class TestPartitionsUpTo:
    def test_equals_reference_in_order(self):
        assert list(partitions_up_to(7, 4)) == all_partitions(7, 4)

    def test_needs_no_deep_stack(self):
        # more parts than Python's recursion limit has frames
        assert sum(1 for _ in partitions_up_to(1100, 0)) == 1100


class TestUniquePredicate:
    def test_positive_last_part(self):
        assert unique_point_clause(coords((1, 1), 2)) == "(i)"
        assert unique_point_clause(coords((1, 1), 5)) == "(i)"

    def test_short_partition(self):
        assert unique_point_clause(coords((0, 0), 2)) == "(ii)"

    def test_three_points_in_plane_not_unique(self):
        assert unique_point_clause(coords((0, 0, 0), 2)) is None

    def test_codim_one_clauses(self):
        assert unique_point_clause(coords((0, 0, 0), 1)) == "(iii)"
        assert unique_point_clause(coords((2, 2, 1, 0), 3)) == "(iv)"
        assert unique_point_clause(coords((1, 1, 0, 0, 0), 2)) is None


class TestTwoPredicate:
    def test_clause_examples(self):
        assert two_point_clause(coords((0, 0, 0), 2, P5)) == "(i)(a)"
        assert two_point_clause(coords((0, 0, 0, 0), 2, P2)) is None
        assert two_point_clause(coords((0, 0, 0, 0), 2)) == "(i)(a')"
        assert two_point_clause(coords((1, 1, 1, 0), 3)) is None

    def test_each_clause_fires(self):
        assert two_point_clause(coords((1, 1, 0), 3)) == "(i)(b)"
        assert two_point_clause(coords((2, 2, 0), 4)) == "(i)(c)"
        assert two_point_clause(coords((3, 0, 0), 5)) == "(ii)(a)"
        assert two_point_clause(coords((2, 1, 0), 4)) == "(ii)(b)"
        assert two_point_clause(coords((3, 2, 0), 5)) == "(ii)(c)"

    def test_exclusions(self):
        # quadruple of ones is the twisted family, not a two-point scheme
        assert two_point_clause(coords((1, 1, 1, 0), 4)) is None
        # pair run of length one is the unique case
        assert two_point_clause(coords((1, 0), 3)) is None
        assert two_point_clause(coords((2, 0), 4)) is None
        # four-point clause needs the plane
        assert two_point_clause(coords((0, 0, 0, 0), 3)) is None
        # (d, d, 1, 0) run blocks clause (ii)(b)
        assert two_point_clause(coords((2, 2, 1, 0), 4)) is None

    def test_codim_one_rejected(self):
        with pytest.raises(OutOfScopeError):
            two_point_clause(coords((1, 1, 0), 2))


class TestThreePointFamily:
    def test_members(self):
        assert in_three_point_family(coords((2, 2, 1, 0), 4))
        assert in_three_point_family(coords((3, 3, 1, 0), 5))
        assert in_three_point_family(coords((1, 1, 1, 0), 3))

    def test_non_members(self):
        assert not in_three_point_family(coords((2, 2, 0), 4))
        assert not in_three_point_family(coords((2, 1, 1, 0), 4))
        assert not in_three_point_family(coords((2, 2, 2, 0), 4))


class TestPredicateConsistency:
    def test_exclusive_on_grid(self):
        # at most one predicate holds, and predict names it:
        # verify_classification reads predict alone
        for parts in all_partitions(6, 3):
            for c in (2, 3):
                for ch in (CHAR0, P2):
                    cell = coords(parts, c + parts[0], ch)
                    held = [
                        unique_point_clause(cell) is not None,
                        two_point_clause(cell) is not None,
                        in_three_point_family(cell),
                    ]
                    assert sum(held) <= 1, (parts, c, ch)
                    predicted = predict(cell).predicted_count
                    assert [predicted == k for k in (1, 2, 3)] == held, (parts, c, ch)

    def test_characteristic_only_matters_for_the_plane_quadruple(self):
        for parts in all_partitions(6, 3):
            for c in (2, 3):
                if parts == (0, 0, 0, 0) and c == 2:
                    continue
                cell0 = coords(parts, c + parts[0])
                cell2 = coords(parts, c + parts[0], P2)
                for clause in (two_point_clause, unique_point_clause):
                    assert (clause(cell0) is None) == (clause(cell2) is None)


class TestCountDispatch:
    def test_reeves_twisted(self):
        ideals = enumerate_strongly_stable(GotzmannPartition((1, 1, 1, 0)), 3)
        assert len(ideals) == 3

    def test_oracle_char_two(self):
        ideals = enumerate_borel_fixed(GotzmannPartition((0, 0, 0, 0)), 2, P2)
        assert len(ideals) == 3

    def test_reeves_three_space(self):
        assert len(enumerate_strongly_stable(GotzmannPartition((0, 0, 0)), 3)) == 2

    def test_auto_picks_by_characteristic(self):
        assert count_borel_fixed(coords((0, 0, 0), 2))[0] == 2
        assert count_borel_fixed(coords((0, 0, 0), 2, P2))[0] == 2


class TestVerification:
    def test_small_char_zero_grid(self):
        grid = [
            coords((0, 0, 0), 2),
            coords((0, 0, 0, 0), 2),
            coords((1, 1), 2),
            coords((1, 1, 0), 3),
            coords((1, 1, 1, 0), 3),
        ]
        report = verify_classification(grid)
        assert report.ok
        assert len(report.cells) == 5

    def test_char_two_cells(self):
        grid = [
            coords((0, 0, 0, 0), 2, P2),
            coords((0, 0, 0), 2, P2),
            coords((1, 1, 1, 0), 3, P2),
        ]
        report = verify_classification(grid)
        assert report.ok
        verified = {tuple(c["partition"]): c["verified"] for c in report.cells}
        assert verified[(0, 0, 0, 0)] == 3
        assert verified[(0, 0, 0)] == 2
        assert verified[(1, 1, 1, 0)] == 3

    def test_empty_grid(self):
        report = verify_classification([])
        assert report.ok
        assert report.cells == []

    def test_full_default_grid(self):
        grid = default_grid()
        report = verify_classification(grid)
        assert report.ok, report.discrepancies[:5]
        by_char = {}
        for cell in report.cells:
            by_char[cell["char"]] = by_char.get(cell["char"], 0) + 1
        assert by_char == {0: 418, 2: 25, 3: 25}

    def test_problems_are_those_of_the_three_predicates(self, monkeypatch):
        # every count from 0 to 4 on every cell, codimension 1 included,
        # against the predicates evaluated one by one
        grid = [
            coords(parts, c + parts[0], ch)
            for parts in all_partitions(5, 2)
            for c in (1, 2, 3)
            for ch in (CHAR0, P2)
        ]
        for count in range(5):
            monkeypatch.setattr(classify, "count_strongly_stable", lambda *a: count)
            report = verify_classification(grid)
            found = {
                (tuple(d["partition"]), d["n"], d["char"]): d["problems"]
                for d in report.discrepancies
            }
            for cell in grid:
                in_scope = cell.codim >= 2
                problems = []
                if (count == 1) != (unique_point_clause(cell) is not None):
                    problems.append("unique-point predicate mismatch")
                if in_scope and (count == 2) != (two_point_clause(cell) is not None):
                    problems.append("two-point predicate mismatch")
                if in_scope and in_three_point_family(cell) and count != 3:
                    problems.append("three-point family count mismatch")
                key = (cell.partition.parts, cell.n, cell.char.value)
                assert found.get(key, []) == problems, (key, count)

    def test_report_equals_one_from_enumerated_sets(self, monkeypatch):
        # verify_classification counts the expansions that end the walk
        # without making them; the report must be the one count_borel_fixed's
        # sets give
        grid = default_grid()
        counted = verify_classification(grid).to_json_dict()
        enumerated = []

        def set_size(partition, n, ch):
            enumerated.append(count_borel_fixed(SchemeCoordinates(partition, n, ch))[0])
            return enumerated[-1]

        monkeypatch.setattr(classify, "count_strongly_stable", set_size)
        assert counted == verify_classification(grid).to_json_dict()
        assert len(enumerated) == len(grid)

    def test_unique_predicate_at_codim_one(self):
        # the unique-point criterion also covers codimension 1, where the
        # two-point classification is out of scope
        for parts in all_partitions(5, 2):
            partition = GotzmannPartition(parts)
            cell = coords(parts, partition.degree + 1)
            count = len(enumerate_strongly_stable(partition, cell.n))
            unique = unique_point_clause(cell) is not None
            assert (count == 1) == unique, (parts, count)


class TestTree:
    def test_root(self):
        tree = explore_tree(2, 0)
        assert tree.coords.partition.parts == (0,)
        assert tree.coords.n == 2
        assert tree.children == ()

    def test_children_edges(self):
        left, right = tree_children(coords((0,), 2))
        assert left.partition.parts == (0, 0) and left.n == 2
        assert right.partition.parts == (1,) and right.n == 3

    def test_edges_change_gotzmann_number_as_expected(self):
        for parts in all_partitions(4, 2):
            cell = coords(parts, parts[0] + 2)
            left, right = tree_children(cell)
            r = cell.partition.gotzmann_number
            assert left.partition.gotzmann_number == r + 1
            assert right.partition.gotzmann_number == r

    def test_depth_three_contains_three_points_in_plane(self):
        tree = explore_tree(2, 3)

        def collect(node):
            yield node
            for child in node.children:
                yield from collect(child)

        nodes = {
            (node.coords.partition.parts, node.coords.n): node.predicted_count
            for node in collect(tree)
        }
        assert nodes[((0, 0, 0), 2)] == 2
        assert nodes[((0, 0), 2)] == 1
        assert nodes[((1, 1), 3)] == 1

    def test_codim_preserved_throughout(self):
        tree = explore_tree(3, 3)

        def collect(node):
            yield node
            for child in node.children:
                yield from collect(child)

        for node in collect(tree):
            assert node.coords.codim == 3

    def test_depth_ceiling(self, monkeypatch):
        assert MAX_TREE_DEPTH == 12
        for depth in (MAX_TREE_DEPTH + 1, 20, 10**9):
            with pytest.raises(SearchBoundError, match="cap 12"):
                explore_tree(2, depth)
        assert explore_tree(2, 9).children
        # the cap is inclusive, and read when the tree is asked for
        monkeypatch.setattr(classify, "MAX_TREE_DEPTH", 2)
        assert explore_tree(2, 2).children
        with pytest.raises(SearchBoundError, match="depth 3 exceeds the cap 2"):
            explore_tree(2, 3)

    def test_enumerated_tree_bound(self, monkeypatch):
        assert MAX_TREE_WORK == 300_000
        # 8191 nodes, the deepest in 200 variables: inside the depth cap
        with pytest.raises(SearchBoundError, match="8191 nodes times 200 variables, above 300000"):
            explore_tree(187, 12, enumerate_counts=True)
        # without counts the tree runs no walk, so only the depth cap holds
        assert explore_tree(187, 12).children
        # the bound is inclusive, and read when the tree is asked for:
        # depth 2 at codim 2 has 7 nodes, the deepest in 5 variables
        monkeypatch.setattr(classify, "MAX_TREE_WORK", 35)
        assert explore_tree(2, 2, enumerate_counts=True).children
        with pytest.raises(SearchBoundError, match="7 nodes times 6 variables, above 35"):
            explore_tree(3, 2, enumerate_counts=True)

    def test_enumerated_counts(self):
        tree = explore_tree(2, 2, enumerate_counts=True)

        def collect(node):
            yield node
            for child in node.children:
                yield from collect(child)

        for node in collect(tree):
            if node.predicted_count in (1, 2, 3):
                assert node.verified_count == node.predicted_count

    @pytest.mark.parametrize("ch", [CHAR0, P2])
    def test_enumerated_counts_equal_set_sizes(self, ch):
        tree = explore_tree(2, 3, enumerate_counts=True, char=ch)

        def collect(node):
            yield node
            for child in node.children:
                yield from collect(child)

        nodes = list(collect(tree))
        assert len(nodes) == 15
        for node in nodes:
            assert node.coords.char == ch
            assert node.verified_count == count_borel_fixed(node.coords)[0], (
                node.coords.partition.parts,
                node.coords.n,
            )


class TestPredict:
    def test_verdicts(self):
        assert predict(coords((1, 1), 3)).predicted_count == 1
        assert predict(coords((0, 0, 0), 2)).predicted_count == 2
        assert predict(coords((2, 2, 1, 0), 4)).predicted_count == 3
        assert predict(coords((0, 0, 0, 0, 0), 2)).predicted_count == ">=3/unknown"

    def test_clause_is_reported(self):
        verdict = predict(coords((0, 0, 0), 2))
        assert verdict.matched_clause == "(i)(a)"
