import ast
from pathlib import Path

import pytest

from borelpoints import exhaustive
from borelpoints import (
    CHAR0,
    Characteristic,
    GotzmannPartition,
    SchemeCoordinates,
    SearchBoundError,
    default_grid,
    enumerate_borel_fixed,
    enumerate_strongly_stable,
    hilbert_polynomial,
    is_borel_fixed,
    is_strongly_stable,
    partitions_up_to,
    search_levels,
)

from conftest import ideal, reference_search_levels

P2 = Characteristic(2)
P3 = Characteristic(3)
P5 = Characteristic(5)


class TestCharacteristicTwoException:
    def test_char_two_has_three_ideals(self):
        found = enumerate_borel_fixed(GotzmannPartition((0, 0, 0, 0)), 2, P2)
        assert found == {
            ideal([(1, 0, 0), (0, 4, 0)], 3),
            ideal([(2, 0, 0), (1, 1, 0), (0, 3, 0)], 3),
            ideal([(2, 0, 0), (0, 2, 0)], 3),
        }
        nonstandard = [I for I in found if not is_strongly_stable(I)]
        assert nonstandard == [ideal([(2, 0, 0), (0, 2, 0)], 3)]

    def test_odd_characteristics_have_two(self):
        for ch in (P3, P5):
            found = enumerate_borel_fixed(GotzmannPartition((0, 0, 0, 0)), 2, ch)
            assert len(found) == 2


class TestTwistedCubicAllCharacteristics:
    def test_counts_match_characteristic_zero(self):
        partition = GotzmannPartition((1, 1, 1, 0))
        reference = enumerate_strongly_stable(partition, 3)
        for ch in (P2, P3):
            assert enumerate_borel_fixed(partition, 3, ch) == reference


class TestAgainstReeves:
    CELLS = [
        ((0, 0), 2),
        ((0, 0, 0), 2),
        ((0, 0, 0), 3),
        ((1, 1), 3),
        ((1, 1, 0), 3),
        ((1, 1, 1, 0), 3),
    ]

    def test_char_zero_equivalence(self):
        for parts, n in self.CELLS:
            partition = GotzmannPartition(parts)
            assert enumerate_borel_fixed(
                partition, n, CHAR0
            ) == enumerate_strongly_stable(partition, n), (parts, n)

    def test_char_p_contains_strongly_stable_set(self):
        for parts, n in self.CELLS:
            partition = GotzmannPartition(parts)
            stable = enumerate_strongly_stable(partition, n)
            for ch in (P2, P3):
                found = enumerate_borel_fixed(partition, n, ch)
                assert stable <= found, (parts, n, ch.value)
                assert len(found) >= len(stable)

    def test_outputs_are_valid(self):
        # the oracle tests no output's polynomial, since its popcounts
        # fix it (module docstring); this is the test, on every grid cell
        # inside the default bounds
        cells = {
            (c.partition, c.n)
            for c in default_grid()
            if c.n <= exhaustive.DEFAULT_MAX_AMBIENT
            and c.partition.gotzmann_number <= exhaustive.DEFAULT_MAX_GOTZMANN
        }
        assert len(cells) == 25
        for partition, n in cells:
            for ch in (CHAR0, P2, P3, P5):
                for I in enumerate_borel_fixed(partition, n, ch):
                    assert I.gens, (partition, n, ch)
                    assert is_borel_fixed(I, ch)
                    assert I.saturate() == I
                    assert I.max_generator_degree <= partition.gotzmann_number
                    assert hilbert_polynomial(I).polynomial == partition, (str(I), n, ch)


class TestFeasibilityGuard:
    def test_gotzmann_number_guard(self):
        with pytest.raises(SearchBoundError):
            enumerate_borel_fixed(GotzmannPartition((0,) * 6), 2, P2)

    def test_ambient_guard(self):
        with pytest.raises(SearchBoundError):
            enumerate_borel_fixed(GotzmannPartition((0, 0)), 4, P2)

    def test_force_override(self):
        partition = GotzmannPartition((0,) * 6)
        found = enumerate_borel_fixed(partition, 2, CHAR0, force=True)
        assert found == enumerate_strongly_stable(partition, 2)

    def test_forced_twisted_family_in_four_space(self):
        # the three-point count persists in higher ambient dimension and
        # positive characteristic, with no nonstandard ideal appearing
        partition = GotzmannPartition((1, 1, 1, 0))
        found = enumerate_borel_fixed(partition, 4, P2, force=True)
        assert found == enumerate_strongly_stable(partition, 4)
        assert len(found) == 3


class TestSearchLevels:
    def test_node_invariants(self):
        # every ideal alive after degree deg is Borel-fixed, generated in
        # degrees <= deg, and passes both of the search's pruning tests
        partition = GotzmannPartition((0, 0, 0))
        r = partition.gotzmann_number
        checkpoints = range(r, r + partition.degree + 2)
        for ch in (CHAR0, P2):
            levels = list(search_levels(partition, 2, ch))
            assert len(levels) == r
            for deg, level in enumerate(levels, start=1):
                assert level
                for I in level:
                    assert is_borel_fixed(I, ch)
                    assert I.max_generator_degree <= deg
                    assert I.hilbert_function(deg) <= partition.evaluate(r)
                    for d in checkpoints:
                        assert I.hilbert_function(d) >= partition.evaluate(d)


class TestBeyondTheWindow:
    """The forced oracle agrees with the walk in P^4, past the default
    ambient bound, in characteristic 0 and p."""

    @pytest.mark.parametrize("ch", [CHAR0, P2, P3], ids=lambda ch: f"p{ch}")
    def test_points_and_lines_in_four_space(self, ch):
        for parts in partitions_up_to(6, 1):
            partition = GotzmannPartition(parts)
            assert enumerate_borel_fixed(
                partition, 4, ch, force=True
            ) == enumerate_strongly_stable(partition, 4, ch), parts

    def test_plane_line_and_points_at_two(self):
        # p(t) = C(t + 2, 2) + t + 4: a search that branched over every
        # subset of one degree's orbits, state by state, ran for minutes
        partition = GotzmannPartition((2, 1, 0, 0, 0, 0))
        found = enumerate_borel_fixed(partition, 4, P2, force=True)
        assert found == enumerate_strongly_stable(partition, 4, P2)
        assert len(found) == 14


def _differential_cells():
    grid = default_grid()
    cells = [c for c in grid if not c.char.is_zero]
    cells += [
        c
        for c in grid
        if c.char.is_zero and c.n <= 3 and c.partition.gotzmann_number <= 5
    ]
    cells.append(SchemeCoordinates(GotzmannPartition((1, 1, 1, 0)), 4, P2))
    return cells


class TestAgainstReferenceSearch:
    """The bitset search yields exactly the levels of the search on ideals."""

    @pytest.mark.parametrize(
        "coords",
        _differential_cells(),
        ids=lambda c: f"{','.join(map(str, c.partition.parts))}-n{c.n}-p{c.char}",
    )
    def test_levels_match(self, coords):
        args = (coords.partition, coords.n, coords.char)
        got = list(search_levels(*args, force=True))
        expected = list(reference_search_levels(*args))
        assert len(got) == len(expected) == coords.partition.gotzmann_number
        for level, (mine, theirs) in enumerate(zip(got, expected), start=1):
            assert mine == theirs, level


def test_oracle_imports_nothing_from_reeves():
    # the oracle cross-checks the walk, so it must not share its code: not
    # the walk, nor its key machinery, nor a second Hilbert engine, since
    # the search decides the polynomial by its own popcounts
    tree = ast.parse(Path(exhaustive.__file__).read_text())
    imported, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert "borel" in imported
    assert not any("reeves" in name for name in imported)
    assert not names & {
        "hilbert_polynomial",
        "_numerator",
        "KeyLayout",
        "_expandable_keys",
        "_expand_keys",
        "_blockers",
        "_key_width",
    }
