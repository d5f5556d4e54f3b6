import tracemalloc
from operator import mul

import pytest
from hypothesis import given, settings

from borelpoints import (
    GotzmannPartition,
    MonomialIdeal,
    enumerate_strongly_stable,
    enumeration_levels,
    expand,
    expandable_generators,
    is_strongly_stable,
    lex_ideal,
)
from borelpoints import hilbert_poly, monomial_ideal, reeves
from borelpoints.borel import _expand
from borelpoints.monomial_ideal import hilbert_polynomial_values
from borelpoints.reeves import (
    _descend,
    _expanded_numerator,
    _level_columns,
    _walk,
)

from conftest import ideal, mini_grid, saturated_strongly_stable, trim


class TestKnownFamilies:
    def test_twisted_cubic_polynomial(self):
        found = enumerate_strongly_stable(GotzmannPartition((1, 1, 1, 0)), 3)
        assert found == {
            ideal([(1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)], 4),
            ideal([(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 3, 0, 0)], 4),
            ideal([(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)], 4),
        }

    def test_two_points_in_plane(self):
        found = enumerate_strongly_stable(GotzmannPartition((0, 0)), 2)
        assert found == {ideal([(1, 0, 0), (0, 2, 0)], 3)}

    def test_four_points_in_plane(self):
        found = enumerate_strongly_stable(GotzmannPartition((0, 0, 0, 0)), 2)
        assert found == {
            ideal([(1, 0, 0), (0, 4, 0)], 3),
            ideal([(2, 0, 0), (1, 1, 0), (0, 3, 0)], 3),
        }

    def test_four_points_in_three_space(self):
        # three strongly stable ideals once the ambient space grows
        found = enumerate_strongly_stable(GotzmannPartition((0, 0, 0, 0)), 3)
        assert len(found) == 3

    def test_rejects_small_ambient(self):
        with pytest.raises(ValueError):
            enumerate_strongly_stable(GotzmannPartition((1, 1)), 1)


class TestOutputInvariants:
    def test_outputs_are_valid(self):
        for partition, n in mini_grid():
            r = partition.gotzmann_number
            found = enumerate_strongly_stable(partition, n)
            assert found, (partition.parts, n)
            for I in found:
                assert I.num_vars == n + 1
                assert is_strongly_stable(I)
                assert I.saturate() == I
                assert I.hilbert_polynomial().polynomial == partition
                assert I.max_generator_degree <= r

    def test_lex_ideal_always_present(self):
        for partition, n in mini_grid():
            found = enumerate_strongly_stable(partition, n)
            assert lex_ideal(partition, n) in found, (partition.parts, n)

    def test_last_generator_always_expandable(self):
        # canonical order puts the lex-least generator of top degree last;
        # its down-shifts are lex-smaller, so they can never block it and
        # an expansion chain can never stall
        for partition, n in mini_grid():
            for I in enumerate_strongly_stable(partition, n):
                assert I.gens[-1] in expandable_generators(I)


class TestChainDedup:
    def chains_reversed(self, I, steps):
        if steps == 0:
            return {I}
        out = set()
        for g in reversed(expandable_generators(I)):
            out |= self.chains_reversed(expand(I, g), steps - 1)
        return out

    def test_order_independent_results(self):
        for gens, num_vars in [
            ([(1, 0, 0), (0, 1, 0)], 3),
            ([(1, 0, 0, 0), (0, 1, 0, 0)], 4),
            ([(1, 0, 0, 0), (0, 2, 0, 0)], 4),
        ]:
            I = ideal(gens, num_vars)
            for steps in (1, 2, 3):
                found = _descend({steps: {I: I.hilbert_numerator()}})
                assert found.keys() == self.chains_reversed(I, steps)


class TestLevels:
    def test_level_targets_and_rings(self):
        partition = GotzmannPartition((1, 1, 1, 0))
        states = list(enumeration_levels(partition, 3))
        assert len(states) == 2
        assert states[0].target.parts == (0, 0, 0)
        assert states[1].target.parts == (1, 1, 1, 0)
        assert {str(i) for i in states[0].ideals} == {
            "<x0, x1^3>",
            "<x0^2, x0*x1, x1^2>",
        }
        for state in states:
            for I in state.ideals:
                assert I.hilbert_polynomial().polynomial == state.target


class TestPointsLadder:
    # the walk does not check the ideals it visits, so its outputs are
    # checked here
    @pytest.mark.parametrize(
        "k, count", [(14, 146), (16, 289), (18, 560), (20, 1068), (24, 3707)]
    )
    def test_points_in_p4(self, k, count):
        partition = GotzmannPartition((0,) * k)
        found = enumerate_strongly_stable(partition, 4)
        assert len(found) == count
        for I in found:
            assert is_strongly_stable(I), str(I)
            assert I.saturate() == I, str(I)
            assert I.hilbert_polynomial().polynomial == partition, str(I)

    def test_memory_bounded_by_one_level(self):
        # the walk holds whole buckets of ideals, never the reachable set
        # of each; a memo of those sets peaked at about 108 MB here
        tracemalloc.start()
        try:
            found = enumerate_strongly_stable(GotzmannPartition((0,) * 24), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 3707
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestCarriedNumerators:
    # the walk computes each ideal's Hilbert numerator from its parent's;
    # check every one it records against the pivot recursion

    def check(self, nums):
        for I, num in nums.items():
            assert trim(num) == trim(I.hilbert_numerator()), str(I)

    def test_mini_grid(self, monkeypatch):
        # the walk ends every level with the numerators of its ideals, and
        # the buckets it empties on the way hold every other ideal visited
        emptied = {}

        class Buckets(dict):
            def pop(self, *args):
                bucket = super().pop(*args)
                emptied.update(bucket)
                return bucket

        descend = reeves._descend
        monkeypatch.setattr(reeves, "_descend", lambda b: descend(Buckets(b)))
        for partition, n in mini_grid():
            levels = 0
            for state, nums in _walk(partition, n):
                assert state.ideals == nums.keys()
                self.check(nums)
                levels += 1
            assert levels == partition.degree + 1
        assert emptied
        self.check(emptied)

    def test_level_columns(self):
        # the walk's per-level binomial table gives the Hilbert polynomial
        # values of every numerator it records
        for partition, n in mini_grid():
            for state, nums in _walk(partition, n):
                (num_vars,) = {I.num_vars for I in nums}
                ts = range(-2, state.level + 4)
                width = max(map(len, nums.values()))
                columns = _level_columns(num_vars - 1, ts, width)
                for num in nums.values():
                    assert [sum(map(mul, num, col)) for col in columns] == (
                        hilbert_polynomial_values(num, num_vars, ts)
                    )

    def test_non_constant_deficit_raises(self, monkeypatch):
        # a wrong constant coefficient adds C(t + n, n) to the Hilbert
        # polynomial, so after the first lift the deficit is not constant
        cell = (GotzmannPartition((1, 1, 1, 0)), 3)
        assert cell in mini_grid()
        first = next(_walk(*cell))[0]
        assert first.level == 0 and len(first.ideals) > 1  # level 0 expands

        def wrong(num, a, n):
            out = _expanded_numerator(num, a, n)
            return (out[0] + 1,) + out[1:]

        monkeypatch.setattr(reeves, "_expanded_numerator", wrong)
        with pytest.raises(ValueError, match="plus a constant"):
            enumerate_strongly_stable(*cell)

    @pytest.mark.parametrize("k", [14, 16])
    def test_points_in_p4(self, k):
        # a single level: descend from the start ideal <x_0, ..., x_3>
        # directly, by every number of steps up to the k - 1 that k points
        # need, so every ideal the level visits is checked
        start = MonomialIdeal.from_generators(
            [tuple(int(i == j) for i in range(5)) for j in range(4)], 5
        )
        for steps in range(k):
            found = _descend({steps: {start: (1, -4, 6, -4, 1)}})  # (1-t)^4
            self.check(found)
        assert found.keys() == enumerate_strongly_stable(
            GotzmannPartition((0,) * k), 4
        )

    def test_walk_computes_no_hilbert_data(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the walk must carry its numerators")

        monkeypatch.setattr(monomial_ideal, "_numerator", forbidden)
        monkeypatch.setattr(monomial_ideal, "hilbert_polynomial", forbidden)
        monkeypatch.setattr(hilbert_poly, "peel_to_partition", forbidden)
        for partition, n in mini_grid():
            assert enumerate_strongly_stable(partition, n)

    def test_every_level_recorded(self):
        # the last level too: its numerators are bucket 0 of its descent
        for parts, n in [((1, 1, 1, 0), 3), ((2, 1, 0, 0), 3), ((0,) * 8, 4)]:
            partition = GotzmannPartition(parts)
            states = list(_walk(partition, n))
            assert len(states) == partition.degree + 1
            for state, nums in states:
                assert nums.keys() == state.ideals
                self.check(nums)

    @settings(max_examples=200, deadline=None)
    @given(saturated_strongly_stable())
    def test_expansion_and_lift(self, I):
        n = I.num_vars - 1
        N = I.hilbert_numerator()
        assert trim(I.lift().hilbert_numerator()) == trim(N)
        for g in expandable_generators(I):
            assert trim(_expand(I, g).hilbert_numerator()) == trim(
                _expanded_numerator(N, sum(g), n)
            )
