import gc
import sys
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings

from borelpoints import (
    CHAR0,
    Characteristic,
    GotzmannPartition,
    MonomialIdeal,
    count_strongly_stable,
    enumerate_borel_fixed,
    enumerate_strongly_stable,
    enumeration_levels,
    expand,
    expandable_generators,
    hilbert_polynomial,
    is_borel_fixed,
    is_strongly_stable,
    lex_ideal,
)
from borelpoints import binomial_poly, borel, hilbert_poly, monomial_ideal, reeves
from borelpoints.borel import KeyLayout, _expand_keys, _key_width
from borelpoints.classify import default_grid, partitions_up_to
from borelpoints.reeves import _expanded_coordinates

from conftest import (
    all_partitions,
    brute_contractions,
    coordinate_step_holds,
    decode_entry,
    expanded_numerator,
    ideal,
    kept_levels,
    lift,
    mini_grid,
    numerator_coordinates,
    on_ideal,
    one_minus_t_power,
    recording_expand_keys,
    reference_levels,
    reference_search,
    reference_start,
    saturated_strongly_stable,
    staircase_ideals,
    trim,
)


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
                assert hilbert_polynomial(I).polynomial == partition
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
            assert not brute_contractions(I)  # so it enters with last ()
            for steps in (1, 2, 3):
                h = numerator_coordinates(I.hilbert_numerator(), num_vars - 1, 1)
                found = descend_level_zero(I, h, steps, CHAR0)
                assert found
                assert found.keys() == self.chains_reversed(I, steps)


class TestLevels:
    def test_level_targets_and_rings(self):
        partition = GotzmannPartition((1, 1, 1, 0))
        levels = list(enumeration_levels(partition, 3))
        targets = [partition.difference(), partition]
        assert len(levels) == 2
        assert targets[0].parts == (0, 0, 0)
        assert {str(i) for i in levels[0]} == {
            "<x0, x1^3>",
            "<x0^2, x0*x1, x1^2>",
        }
        for level, target, num_vars in zip(levels, targets, (3, 4)):
            for I in level:
                assert I.num_vars == num_vars
                assert hilbert_polynomial(I).polynomial == target


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
            assert hilbert_polynomial(I).polynomial == partition, str(I)

    def test_memory_bounded_by_one_level(self):
        # the walk holds its levels and its path, never the set reachable
        # from each ideal; a memo of those sets peaked at about 108 MB here
        tracemalloc.start()
        try:
            found = enumerate_strongly_stable(GotzmannPartition((0,) * 24), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 3707
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"


def check_coordinates(pairs, c):
    """Every carried coordinate vector h_c, ..., h_{c+d} of the (ideal, h)
    pairs against the one read off the ideal's numerator from the pivot
    loop, and the coordinates below h_c, which the walk takes to be
    zero."""
    for I, h in pairs:
        N = I.hilbert_numerator()
        assert numerator_coordinates(N, 0, c) == (0,) * c, str(I)
        assert h == numerator_coordinates(N, c, len(h)), str(I)


def descend_level_zero(I, h, steps, ch):
    """Level 0 of the walk from the single entry of I, an ideal steps
    expansions short of level 0 with h = (h_c,), built at no generator,
    as a dict from ideal to coordinates.  The keys hold the degrees up
    to steps above those of I."""
    lay = KeyLayout(I.num_vars, _key_width(I.max_generator_degree + steps))
    keys = tuple(map(lay.encode, I.gens))
    level = {}
    reeves._search([(keys, h, lay.none, 0, steps)], (h[0] + steps,), ch, lay, [level])
    return lay.ideals(level, I.num_vars)


class RecordedStack(list):
    """A walk stack that adds every entry popped from it to the list
    popped."""

    def __init__(self, entries, popped):
        super().__init__(entries)
        self.popped = popped

    def pop(self):
        self.popped.append(super().pop())
        return self.popped[-1]


def popped_entries(partition, n, ch=CHAR0, levels=None):
    """Every entry the walk to partition in K[x_0, ..., x_n] pops, in the
    order it pops them, decoded to (ideal, h, last, j, s), and the count
    the walk returns; levels as in reeves._search, decoded in place."""
    stack, tau, lay, blockers = reeves._start(partition, n)
    popped = []
    count = reeves._search(
        RecordedStack(stack, popped), tau, ch, lay, levels, blockers
    )
    c = n - partition.degree
    if levels is not None:
        levels[:] = [lay.ideals(level, c + j + 1) for j, level in enumerate(levels)]
    assert popped
    return [decode_entry(entry, lay, c) for entry in popped], count


def walk_entries(partition, n, ch=CHAR0):
    """Every (ideal, h, last, j, s) entry the walk to partition in
    K[x_0, ..., x_n] pops, in the order it pops them, decoded, and the
    levels it collects, which must be those enumeration_levels yields."""
    levels = [{} for _ in range(partition.degree + 1)]
    popped, _ = popped_entries(partition, n, ch, levels)
    assert levels == list(enumeration_levels(partition, n, ch))
    return popped, levels


def reference_entries(partition, n, ch=CHAR0, levels=None):
    """popped_entries of reference_search, the walk on MonomialIdeal
    values in tests/conftest.py."""
    stack, tau = reference_start(partition, n)
    popped = []
    count = reference_search(RecordedStack(stack, popped), tau, ch, levels)
    return popped, count


def keep_every_branch(m):
    """Patch reeves._completes on the monkeypatch m to keep every branch,
    so that the walk is the whole reverse-search tree, with no pruning:
    every ideal of every level, each built once (see the reeves module
    docstring)."""
    m.setattr(reeves, "_completes", lambda x, target, t, top: True)


class TestCarriedNumerators:
    # the walk carries each ideal's coordinates h_c, ..., h_{c+d}, the
    # coefficients of its Hilbert numerator in powers of 1 - t, from its
    # parent's; check every one it records against the pivot loop

    def test_mini_grid(self):
        # the walk ends every level with the coordinates of its ideals, and
        # every entry it pops carries its ideal's coordinates and, apart
        # from them, its deficit to the level's target
        visited = 0
        for partition, n in mini_grid():
            d, c, tau = partition.degree, n - partition.degree, partition.coordinates()
            entries, levels = walk_entries(partition, n)
            assert len(levels) == d + 1
            for level in levels:
                assert {len(h) for h in level.values()} == {d + 1}
                check_coordinates(level.items(), c)
            check_coordinates(((I, h) for I, h, *_ in entries), c)
            for I, h, _, j, s in entries:
                assert s == tau[d - j] - h[j], (str(I), j, s)
            visited += len(entries)
        assert visited > len(mini_grid())

    def test_polynomial_coordinates(self):
        # the coordinates tau_m the walk reads its targets from give
        # p(t) = sum_m tau_m C(t + m, m) at every t, and the backward
        # difference drops tau_0, so each level's target is a shift of the
        # same tuple
        for parts in all_partitions(6, 3):
            partition = GotzmannPartition(parts)
            tau = partition.coordinates()
            assert len(tau) == partition.degree + 1
            for t in range(-5, 11):
                value = sum(x * binomial_poly(t, m, m) for m, x in enumerate(tau))
                assert value == partition.evaluate(t), (parts, t)
            if partition.degree:
                assert partition.difference().coordinates() == tau[1:]

    def test_non_constant_deficit_raises(self, monkeypatch):
        # a coordinate step that adds 2 to h_n instead of 1 would make the
        # next level's deficit non-constant; the check at the end of each
        # level, against the bucket count, catches it at level 0
        cell = (GotzmannPartition((1, 1, 1, 0)), 3)
        assert cell in mini_grid()
        assert len(next(enumeration_levels(*cell))) > 1  # level 0 expands

        def wrong(h, j, a):
            out = _expanded_coordinates(h, j, a)
            return out[:j] + (out[j] + 1,) + out[j + 1 :]

        monkeypatch.setattr(reeves, "_expanded_coordinates", wrong)
        with pytest.raises(ValueError, match="misses its level-0 target"):
            enumerate_strongly_stable(*cell)

    @pytest.mark.parametrize("k", [14, 16])
    def test_points_in_p4(self, k):
        # every ideal the walk visits is checked, and it gives the level of
        # the level-by-level reference walk
        partition = GotzmannPartition((0,) * k)
        entries, levels = walk_entries(partition, 4)
        check_coordinates(((I, h) for I, h, *_ in entries), 4)
        assert len(entries) > len(levels[0])
        assert levels == reference_levels(partition, 4, CHAR0)

    def test_walk_computes_no_hilbert_data(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the walk must carry its coordinates")

        monkeypatch.setattr(monomial_ideal, "_numerator", forbidden)
        monkeypatch.setattr(monomial_ideal, "hilbert_polynomial", forbidden)
        monkeypatch.setattr(hilbert_poly, "peel_to_partition", forbidden)
        monkeypatch.setattr(monomial_ideal, "peel_to_partition", forbidden)
        for partition, n in mini_grid():
            assert enumerate_strongly_stable(partition, n)

    def test_every_level_recorded(self):
        # the last level too
        for parts, n in [((1, 1, 1, 0), 3), ((2, 1, 0, 0), 3), ((0,) * 8, 4)]:
            partition = GotzmannPartition(parts)
            levels = list(enumeration_levels(partition, n))
            assert len(levels) == partition.degree + 1
            for level in levels:
                check_coordinates(level.items(), n - partition.degree)
            assert levels[-1].keys() == enumerate_strongly_stable(partition, n)

    @settings(max_examples=200, deadline=None)
    @given(saturated_strongly_stable())
    def test_expansion_and_lift(self, I):
        # the numerator rule, and the library's coordinate step against
        # the coordinates of the numerators, in full
        n = I.num_vars - 1
        N = I.hilbert_numerator()
        assert trim(lift(I).hilbert_numerator()) == trim(N)
        for g in expandable_generators(I):
            N_g = on_ideal(_expand_keys, I, g, CHAR0).hilbert_numerator()
            assert trim(N_g) == trim(
                expanded_numerator(N, sum(g), one_minus_t_power(n))
            )
            assert coordinate_step_holds(N, N_g, n, sum(g)), (str(I), g)


def listed_contractions(J):
    """C(J) in closed form, for J strongly stable: the non-unit
    c = h / x_{n-1}, h a minimal generator of J with h_{n-1} >= 1, such
    that c is not in J and every x_i x_{i+1}^{-1} c is."""
    n = J.num_vars - 1
    out = set()
    for h in J.gens:
        if h[n - 1]:
            c = h[: n - 1] + (h[n - 1] - 1,) + h[n:]
            if any(c) and not J.contains(c):
                if all(J.contains(up) for up in up_shifts(c)):
                    out.add(c)
    return out


def up_shifts(c):
    """Every x_i x_{i+1}^{-1} c."""
    return [
        c[:i] + (c[i] + 1, c[i + 1] - 1) + c[i + 2 :]
        for i in range(len(c) - 1)
        if c[i + 1]
    ]


def peel_set(J, j):
    """R(J), the monomials of L' that miss J', by brute force, for an ideal
    J of level j (see the reeves module docstring).  J' is J restricted to
    x_n = 0, and L' is J'' = J' : x_{n-1}^infinity above level 0 and the
    start's L' = (x_0, ..., x_{n-1}) at level 0.  Every monomial of R is a
    generator of L' times monomials whose partial products all miss J',
    so a search from the generators by one variable at a time finds R.
    Returns R as monomials of S, with no x_n."""
    n = J.num_vars - 1
    J1 = ideal([g[:-1] for g in J.gens], n)
    if j == 0:
        L1 = ideal([tuple(int(i == k) for i in range(n)) for k in range(n)], n)
    else:
        L1 = J1.saturate()
    todo = [m for m in L1.gens if not J1.contains(m)]
    found = set(todo)
    while todo:
        m = todo.pop()
        for i in range(n):
            v = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if v not in found and not J1.contains(v):
                found.add(v)
                todo.append(v)
                assert len(found) < 10**4, f"R({J}) is not finite"
    return {m + (0,) for m in found}


class TestCanonicalParent:
    # the walk expands each ideal only at generators above the one it was
    # built at; with no pruning it must give the levels of the
    # deduplicating descent and build each of their ideals once, in every
    # characteristic
    def test_same_levels_as_dedupe_descent_each_built_once(self, monkeypatch):
        # up to 18 points in P^4 in characteristic 0, and up to 14 in
        # characteristic p, whose moves are slower
        built = []
        total = 0
        for p, points in ((0, 18), (2, 14), (3, 14)):
            ch = Characteristic(p)
            cells = mini_grid() + [
                (GotzmannPartition((0,) * k), 4) for k in range(1, points + 1)
            ]
            for partition, n in cells:
                built.clear()
                with monkeypatch.context() as m:
                    keep_every_branch(m)
                    m.setattr(reeves, "_expand_keys", recording_expand_keys(built))
                    levels = list(enumeration_levels(partition, n, ch))
                visited = set()
                assert levels == reference_levels(partition, n, ch, visited), (
                    partition.parts,
                    n,
                    p,
                )
                # one expansion per distinct ideal the reference builds
                assert len(built) == len(set(built)), (partition.parts, n, p)
                assert set(built) == visited, (partition.parts, n, p)
                total += len(built)
        assert total

    def test_last_is_max_of_peel_set(self):
        # the invariant the build-once proof rests on: every entry's last
        # is max R(J), () for an empty R, and R is empty exactly for the
        # lifted and start ideals
        checked = built = 0
        for p in (0, 2, 3):
            ch = Characteristic(p)
            for partition, n in mini_grid():
                entries, levels = walk_entries(partition, n, ch)
                lifts = [{lift(I) for I in level} for level in levels]
                for J, _, last, j, _ in entries:
                    R = peel_set(J, j)
                    assert last == max(R, default=()), (str(J), last, p)
                    if not R:  # the start, or a lift of level j - 1
                        assert J in lifts[j - 1] if j else J == entries[0][0]
                    checked += 1
                    built += bool(R)
        assert built and checked > built

    @settings(max_examples=300, deadline=None)
    @given(saturated_strongly_stable())
    def test_contraction_recurrence(self, I):
        # C(J) = {g} + {c in C(I) : g != x_{n-1} c, g != x_i x_{i+1}^{-1} c}
        # for J the expansion of I at g, so max C(J) = g whenever g > max C(I)
        n = I.num_vars - 1
        contractions = brute_contractions(I)
        assert contractions == listed_contractions(I)
        for g in expandable_generators(I):
            J = on_ideal(_expand_keys, I, g, CHAR0)
            killed = {
                c
                for c in contractions
                if g == c[: n - 1] + (c[n - 1] + 1,) + c[n:] or g in up_shifts(c)
            }
            assert all(c < g for c in killed)
            after = brute_contractions(J)
            assert after == {g} | (contractions - killed)
            if g > max(contractions, default=()):
                assert max(after) == g

    def test_lifts_and_start_have_no_contractions(self):
        for partition, n in mini_grid():
            for level in enumeration_levels(partition, n):
                for I in level:
                    assert not brute_contractions(lift(I)), str(I)
        for c in range(1, 5):
            gens = [tuple(int(i == k) for i in range(c + 1)) for k in range(c)]
            start = ideal(gens, c + 1)
            assert not brute_contractions(start)


def least_prime_above(r):
    p = r + 1
    while any(p % q == 0 for q in range(2, p)):
        p += 1
    return p


class TestCharacteristicP:
    # in characteristic p the walk expands each ideal at the generators
    # above the one it was built at that borel._expandable_keys allows,
    # and searches no set for duplicates; the exhaustive oracle is the
    # independent check
    FORCED = [
        ((1, 1, 0, 0), 3),
        ((2, 2, 0), 3),
        ((1, 1, 1, 0), 3),
        ((1, 1, 1, 0), 4),
        ((2, 1, 0, 0), 4),
    ]

    def test_equals_oracle_on_default_grid(self):
        cells = [c for c in default_grid() if not c.char.is_zero]
        assert len(cells) == 50
        for c in cells:
            walk = enumerate_strongly_stable(c.partition, c.n, c.char)
            oracle = enumerate_borel_fixed(c.partition, c.n, c.char)
            assert walk == oracle, (c.partition.parts, c.n, c.char.value)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("parts, n", FORCED)
    def test_equals_forced_oracle(self, parts, n, p):
        partition, ch = GotzmannPartition(parts), Characteristic(p)
        oracle = enumerate_borel_fixed(partition, n, ch, force=True)
        assert enumerate_strongly_stable(partition, n, ch) == oracle

    @pytest.mark.parametrize("p, count", [(2, 2450), (3, 1560)])
    def test_points_in_p4(self, p, count):
        # k = 20 points in P^4 hold nonstandard ideals at p = 2 and 3 (the
        # char-0 count is 1068); the walk does not check what it visits
        partition, ch = GotzmannPartition((0,) * 20), Characteristic(p)
        found = enumerate_strongly_stable(partition, 4, ch)
        assert len(found) == count
        for I in found:
            assert is_borel_fixed(I, ch), str(I)
            assert I.saturate() == I, str(I)
            assert hilbert_polynomial(I).polynomial == partition, str(I)

    def test_no_ideal_built_twice(self, monkeypatch):
        # each cell builds every distinct ideal once, with no set searched
        # for duplicates, so no two entries the walk pops hold one ideal
        built = []
        total = 0
        for partition, n in mini_grid():
            for p in (2, 3):
                built.clear()
                with monkeypatch.context() as m:
                    m.setattr(reeves, "_expand_keys", recording_expand_keys(built))
                    enumerate_strongly_stable(partition, n, Characteristic(p))
                assert len(built) == len(set(built)), (partition.parts, n, p)
                entries, _ = walk_entries(partition, n, Characteristic(p))
                ideals = [I for I, *_ in entries]
                assert len(ideals) == len(set(ideals)), (partition.parts, n, p)
                total += len(built)
        assert total

    def test_moves_call_no_membership_test_or_sort_key(self, monkeypatch):
        # the char-p moves test blockers by a generator-set lookup and an
        # inline divisibility check against lower degrees, and merge the
        # new multiples into their degree block instead of sorting by
        # canonical_key
        calls = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            MonomialIdeal, "contains", counted("contains", MonomialIdeal.contains)
        )
        for module in (monomial_ideal, borel, reeves):
            for name in ("canonical_key", "divides"):
                if hasattr(module, name):
                    f = counted(name, getattr(module, name))
                    monkeypatch.setattr(module, name, f)
        partition, ch = GotzmannPartition((0,) * 14), Characteristic(2)
        assert len(enumerate_strongly_stable(partition, 4, ch)) == 278
        assert calls == []
        # the counters count
        I = MonomialIdeal.from_generators([(0, 1, 0), (1, 0, 0)], 3)
        I.contains((1, 1, 0))
        assert {"canonical_key", "divides", "contains"} <= set(calls)

    def test_outputs_are_valid_with_carried_numerators(self):
        # every carried coordinate vector: the levels and every entry the
        # walk pops, on the mini grid and on 10 points in P^4
        visited = 0
        cells = mini_grid() + [(GotzmannPartition((0,) * 10), 4)]
        for p in (2, 3):
            ch = Characteristic(p)
            for partition, n in cells:
                c = n - partition.degree
                entries, levels = walk_entries(partition, n, ch)
                for level in levels:
                    check_coordinates(level.items(), c)
                    for I in level:
                        assert is_borel_fixed(I, ch), str(I)
                        assert I.saturate() == I, str(I)
                check_coordinates(((I, h) for I, h, *_ in entries), c)
                visited += len(entries)
                assert level.keys() >= enumerate_strongly_stable(partition, n)
        assert visited > len(cells)

    def test_least_prime_above_gotzmann_number_gives_char0_set(self):
        # minimal generators have degree <= r, so every exponent is below
        # a prime p > r, where Pardue's rule is the strongly stable one
        for partition, n in mini_grid():
            p = least_prime_above(partition.gotzmann_number)
            assert enumerate_strongly_stable(
                partition, n, Characteristic(p)
            ) == enumerate_strongly_stable(partition, n), (partition.parts, n, p)


def distinct_part_counts(most):
    """For k = 0, ..., most, the number of partitions of k into distinct
    parts, the coefficients of prod_i (1 + t^i)."""
    q = [1] + [0] * most
    for i in range(1, most + 1):
        for k in range(most, i - 1, -1):
            q[k] += q[k - i]
    return q


class TestStaircases:
    # an engine independent of the walk, past the oracle's window: every
    # saturated monomial ideal of k points in P^n with no x_n in its
    # generators is given by an order ideal of size k in N^n, and the
    # Borel-fixed ones are those is_borel_fixed accepts, a test the walk
    # never makes

    @pytest.mark.parametrize("n, most, last", [(2, 30, 5604), (3, 12, 1479)])
    def test_walk_finds_the_borel_fixed_staircases(self, n, most, last):
        # last is the number of partitions of 30, or of plane partitions
        # of 12
        for k, ideals in staircase_ideals(n, most):
            assert len(set(ideals)) == len(ideals), k
            partition = GotzmannPartition((0,) * k)
            for p in (0, 2, 3, 5, 7):
                ch = Characteristic(p)
                found = enumerate_strongly_stable(partition, n, ch)
                assert found == {I for I in ideals if is_borel_fixed(I, ch)}, (k, p)
        assert len(ideals) == last

    def test_points_in_the_plane_count_distinct_part_partitions(self):
        # in characteristic 0 a staircase in P^2 is strongly stable
        # exactly when its columns have distinct heights
        distinct = distinct_part_counts(30)
        assert distinct[30] == 296
        for k in range(1, 31):
            assert count_strongly_stable(GotzmannPartition((0,) * k), 2) == distinct[k], k


class TestCount:
    # count_strongly_stable runs the walk but does not expand the entries
    # of the last level one expansion short: it counts their expandable
    # generators above last

    def test_equals_enumeration_on_mini_grid(self):
        for p in (0, 2, 3, 5):
            ch = Characteristic(p)
            for partition, n in mini_grid():
                found = enumerate_strongly_stable(partition, n, ch)
                assert count_strongly_stable(partition, n, ch) == len(found), (
                    partition.parts,
                    n,
                    p,
                )

    def test_equals_enumeration_on_default_grid(self):
        cells = default_grid()
        assert len(cells) == 468
        for c in cells:
            found = enumerate_strongly_stable(c.partition, c.n, c.char)
            count = count_strongly_stable(c.partition, c.n, c.char)
            assert count == len(found), (c.partition.parts, c.n, c.char.value)

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_equals_enumeration_on_points_in_p4(self, p):
        ch = Characteristic(p)
        for k in range(1, 21):
            partition = GotzmannPartition((0,) * k)
            found = enumerate_strongly_stable(partition, 4, ch)
            assert count_strongly_stable(partition, 4, ch) == len(found), k

    def test_counts_lifted_and_expanded_ideals(self):
        # the last level of this cell holds lifted ideals already on
        # target besides those built from entries one expansion short, so
        # dropping either term changes the count
        partition, n = GotzmannPartition((1, 1, 1, 0)), 3
        levels = list(enumeration_levels(partition, n))
        lifted = {lift(I) for I in levels[0]}
        assert lifted & levels[1].keys()
        assert levels[1].keys() - lifted
        assert count_strongly_stable(partition, n) == len(levels[1]) == 3

    def test_ambient_dimension_must_exceed_degree(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match="must exceed"):
                count_strongly_stable(GotzmannPartition((1, 1, 0)), n)

    def test_non_constant_deficit_raises(self, monkeypatch):
        # the wrong coordinate step of TestCarriedNumerators, on a single
        # level that starts three expansions short: the entries built into
        # bucket 1 miss tau_0 - 1
        partition, n = GotzmannPartition((0, 0, 0, 0)), 2
        assert partition.coordinates()[0] - 1 == 3

        def wrong(h, j, a):
            out = _expanded_coordinates(h, j, a)
            return out[:j] + (out[j] + 1,) + out[j + 1 :]

        monkeypatch.setattr(reeves, "_expanded_coordinates", wrong)
        with pytest.raises(ValueError, match="misses its level-0 target"):
            count_strongly_stable(partition, n)

    def test_makes_no_expansion_into_the_last_level(self, monkeypatch):
        # the count walks every entry of the unpruned tree except the
        # expansions that end the last level, the ones it counts, and the
        # doomed entries: those of level j < d and deficit s with
        # h_{c+j+1} - s D - s (s - 1) / 2 > tau_{d-j-1}, where D bounds the
        # top generator degree: max(D_I, a + 1) for an expansion of I at a
        # generator of degree a, and the top degree itself for a lift.
        # Every child of a doomed entry is doomed, and no doomed entry
        # leads to an ideal of level d
        cells = mini_grid() + [
            (GotzmannPartition((0,) * 12), 4),
            (GotzmannPartition((1, 1, 1, 1, 0)), 3),
            (GotzmannPartition((3, 3, 3, 3, 2)), 5),
            (GotzmannPartition((4, 4, 2, 1, 1, 0)), 8),
        ]
        saved = pruned = 0
        for p in (0, 2):
            ch = Characteristic(p)
            for partition, n in cells:
                cell = (partition.parts, n, p)
                d, tau = partition.degree, partition.coordinates()
                with monkeypatch.context() as m:
                    keep_every_branch(m)
                    entries, levels = walk_entries(partition, n, ch)
                parents, doomed = {}, set()
                for I, h, last, j, s in entries:
                    parent = parents[I] = walk_parent(I, last)
                    D = max(sum(parent.gens[-1]), sum(last) + 1) if last else sum(I.gens[-1])
                    if j < d and h[j + 1] - s * D - s * (s - 1) // 2 > tau[d - j - 1]:
                        doomed.add(I)
                    else:
                        assert parent not in doomed, cell
                for I in levels[d]:
                    while I in parents:
                        assert I not in doomed, cell
                        I = parents[I]
                counted = {I for I, _, last, *_ in entries if last} & levels[d].keys()
                popped, count = popped_entries(partition, n, ch)
                assert count == len(levels[d]), cell
                assert len({I for I, *_ in popped}) == len(popped), cell
                assert {I for I, *_ in popped} == parents.keys() - counted - doomed, cell
                saved += len(counted)
                pruned += len(doomed)
        assert saved and pruned

    def test_expansion_budget_on_grid_char0(self, monkeypatch):
        # a deterministic work guard: the count on the bench's grid_char0
        # cells made 8 465 expansions before the degree bound, 4 619 with it
        built = []
        cells = [c for c in default_grid(7, 3, (2, 3)) if c.char.is_zero]
        assert len(cells) == 658
        for c in cells:
            found = enumerate_strongly_stable(c.partition, c.n, c.char)
            with monkeypatch.context() as m:
                m.setattr(reeves, "_expand_keys", recording_expand_keys(built))
                count = count_strongly_stable(c.partition, c.n, c.char)
            assert count == len(found), (c.partition.parts, c.n)
        assert 0 < len(built) <= 5000, len(built)

    def test_coordinate_budget_on_grid_char0(self, monkeypatch):
        # a deterministic work guard: the count on the bench's grid_char0
        # cells built coordinates for 6 280 expansions when the prune read
        # them; it now builds them for the expansions it keeps below the
        # last level, and once per parent at the last level
        calls = []

        def record(h, j, a):
            calls.append(j)
            return _expanded_coordinates(h, j, a)

        monkeypatch.setattr(reeves, "_expanded_coordinates", record)
        cells = [c for c in default_grid(7, 3, (2, 3)) if c.char.is_zero]
        assert len(cells) == 658
        for c in cells:
            count_strongly_stable(c.partition, c.n, c.char)
        assert 0 < len(calls) <= 3600, len(calls)

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_equals_enumeration_in_codim_4_degree_4(self, p, monkeypatch):
        # degree 4, codimension 4, Gotzmann number <= 8: the count equals
        # the enumeration on every cell, and the two walk one pruned tree:
        # the count builds exactly the ideals the enumeration builds but
        # its output, the expansions that end the last level, each once
        built = []
        monkeypatch.setattr(reeves, "_expand_keys", recording_expand_keys(built))
        ch = Characteristic(p)
        cells = [GotzmannPartition(q) for q in partitions_up_to(8, 4) if q[0] == 4]
        assert len(cells) == 792
        counted = 0
        for partition in cells:
            built.clear()
            found = enumerate_strongly_stable(partition, 8, ch)
            walked = set(built) - found
            built.clear()
            assert count_strongly_stable(partition, 8, ch) == len(found), partition.parts
            assert len(built) == len(set(built)), partition.parts
            assert set(built) == walked, partition.parts
            counted += len(built)
        assert counted


def walk_parent(J, last):
    """The ideal whose entry the walk replaced by the entry of J built at
    last: J + (last) for an expansion, and for a lift, or last = (), the
    ideal J restricts to in one variable fewer (see the module docstring
    of reeves)."""
    if last:
        return MonomialIdeal.from_generators(J.gens + (last,), J.num_vars)
    return MonomialIdeal(J.num_vars - 1, tuple(g[:-1] for g in J.gens))


def frame_depth():
    """The number of Python frames on the stack of the caller."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestWalkShape:
    # the walk is depth first: it gives the levels of the level-by-level
    # reference walk, the lower ones pruned, a count holds only its path,
    # and it does not recurse

    def test_equals_reference_on_default_grid(self):
        # the last level in full, and each lower level j < d with exactly
        # the ideals whose lift deficit tau_{d-j-1} - h_{c+j+1} is >= 0,
        # coordinates included (see "Pruning" in the reeves docstring)
        cells = default_grid()
        assert len(cells) == 468
        dropped = 0
        for c in cells:
            reference = reference_levels(c.partition, c.n, c.char)
            kept = kept_levels(reference, c.partition.coordinates())
            cell = (c.partition.parts, c.n, c.char.value)
            assert list(enumeration_levels(c.partition, c.n, c.char)) == kept, cell
            assert kept[-1] == reference[-1], cell
            dropped += sum(map(len, reference)) - sum(map(len, kept))
            assert count_strongly_stable(c.partition, c.n, c.char) == len(
                reference[-1]
            ), cell
        assert dropped

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_equals_reference_on_points_in_p4(self, p):
        ch = Characteristic(p)
        for k in range(1, 17):
            partition = GotzmannPartition((0,) * k)
            reference = reference_levels(partition, 4, ch)
            kept = kept_levels(reference, partition.coordinates())
            assert list(enumeration_levels(partition, 4, ch)) == kept, k
            assert count_strongly_stable(partition, 4, ch) == len(reference[0]), k

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_pops_the_reference_entries(self, p):
        # the walk on keys pops the entries of the walk on MonomialIdeal
        # values in conftest, decoded, in the same order, and collects
        # the same levels, insertion order included; so does the count.
        # Both prune, so no doomed entry is popped
        ch = Characteristic(p)
        cells = mini_grid() + [(GotzmannPartition((0,) * k), 4) for k in range(1, 17)]
        popped = 0
        for partition, n in cells:
            cell = (partition.parts, n, p)
            levels = [{} for _ in range(partition.degree + 1)]
            expected = [{} for _ in range(partition.degree + 1)]
            entries, count = popped_entries(partition, n, ch, levels)
            reference = reference_entries(partition, n, ch, expected)
            assert (entries, count) == reference, cell
            assert [list(level.items()) for level in levels] == [
                list(level.items()) for level in expected
            ], cell
            entries, count = popped_entries(partition, n, ch)
            assert (entries, count) == reference_entries(partition, n, ch), cell
            popped += len(entries)
        assert popped > len(cells)

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_top_degree_is_gotzmann_number(self, p):
        # every entry the walk pops has generators of degree at most r,
        # so the width guard never fires (see "Keys" in the reeves
        # docstring); the lex ideal, in every level d, reaches r
        ch = Characteristic(p)
        for c in default_grid():
            stack, tau, lay, _ = reeves._start(c.partition, c.n)
            popped = []
            levels = [{} for _ in tau]
            reeves._search(RecordedStack(stack, popped), tau, ch, lay, levels)
            top = max(keys[-1] >> lay.low_bits for keys, *_ in popped)
            assert top == c.partition.gotzmann_number, (c.partition.parts, c.n, p)

    def test_narrow_keys_raise(self, monkeypatch):
        # keys of width 2 hold exponents up to 3; the walk refuses an
        # expansion to degree 3 instead of overflowing a field
        partition = GotzmannPartition((0,) * 14)
        monkeypatch.setattr(reeves, "_key_width", lambda degree: 2)
        with pytest.raises(ValueError, match="expansion of degree 3 overflows"):
            enumerate_strongly_stable(partition, 4)
        with pytest.raises(ValueError, match="expansion of degree 3 overflows"):
            count_strongly_stable(partition, 4)

    def test_count_holds_only_the_path(self):
        # the level-by-level walk held all of the last level's entries one
        # expansion short here, a peak of 2.61 MB; with its blocker lists
        # (see TestBlockerLists) the count peaks at about 0.05 MB.  Each
        # count leaves nothing behind, where its dict of 102 lists alone
        # takes about 22 KB; the allowance covers the results.  The count
        # at 12 points first makes the one-time allocations of a walk.
        count_strongly_stable(GotzmannPartition((0,) * 12), 4)
        partition = GotzmannPartition((0,) * 24)
        tracemalloc.start()
        try:
            left = []
            for _ in range(2):
                assert count_strongly_stable(partition, 4) == 3707
                gc.collect()
                left.append(tracemalloc.get_traced_memory()[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19, f"peak {peak / 2**20:.2f} MB"
        assert max(left) < 2**10, left

    def test_count_does_not_recurse(self):
        # 24 points in P^4 are 23 expansions deep; 15 frames cover the
        # count's calls into its moves, not a frame per expansion
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 15)
        try:
            count = count_strongly_stable(GotzmannPartition((0,) * 24), 4)
        finally:
            sys.setrecursionlimit(limit)
        assert count == 3707


def recorded_blocker_calls(monkeypatch, walks):
    """Run each walk, a function of no arguments, with every call of
    borel._expandable_keys made through the path without blocker lists,
    and return each call as (keys, last, n, lay, p, memo, found), memo
    one dict shared by the calls of that walk and found the result."""
    calls = []
    memo = {}

    def spy(keys, last, n, lay, p, blockers=None):
        found = borel._expandable_keys(keys, last, n, lay, p)
        calls.append((keys, last, n, lay, p, memo, found))
        return found

    with monkeypatch.context() as m:
        m.setattr(reeves, "_expandable_keys", spy)
        for walk in walks:
            memo = {}
            walk()
    return calls


def blocker_walks(ch):
    """The enumeration walks, levels kept as keys, of every cell of
    default_grid(8, 4, (2, 3, 4)) and of k <= 20 points in P^3 and P^4,
    in characteristic ch."""
    cells = {(c.partition, c.n) for c in default_grid(8, 4, (2, 3, 4))}
    cells |= {(GotzmannPartition((0,) * k), n) for k in range(1, 21) for n in (3, 4)}
    for partition, n in sorted(cells, key=lambda cell: (cell[0].parts, cell[1])):
        stack, tau, lay, _ = reeves._start(partition, n)
        yield partial(reeves._search, stack, tau, ch, lay, [{} for _ in tau])


class TestBlockerLists:
    # above reeves.BLOCKER_LISTS_FROM a walk tests each generator key
    # against its blocker list, borel._blockers, kept in one dict per walk
    # across every level (Lemma 3 at borel._expandable_keys); below it,
    # the early-exit loop

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_lists_give_the_loop_verdicts(self, monkeypatch, p):
        # the path with one dict per walk returns the list of the path
        # without, on every call those walks make, and on every ideal
        # they reach, a generator meets the blocker list of g exactly
        # when it meets the blockers that do not move into x_n
        calls = recorded_blocker_calls(monkeypatch, blocker_walks(Characteristic(p)))
        assert len(calls) > 10_000
        levels = {}
        for keys, last, n, lay, q, memo, expected in calls:
            assert borel._expandable_keys(keys, last, n, lay, q, memo) == expected
            gens, s_n = set(keys), lay.shifts[n]  # x_n's field
            for g in keys:
                listed = borel._blockers(g, lay, q)
                below = [b for b in listed if not (lay.zero - b) >> s_n & lay.mask]
                assert gens.isdisjoint(listed) == gens.isdisjoint(below)
            levels.setdefault(id(memo), set()).add(n)
        # a dict serves the calls of several levels
        assert max(map(len, levels.values())) > 1

    def test_walks_below_the_constant_list_nothing(self, monkeypatch):
        def refuse(g, lay, p):
            raise AssertionError("blocker list made below the constant")

        below = GotzmannPartition((0,) * (reeves.BLOCKER_LISTS_FROM - 1))
        assert below.gotzmann_number == reeves.BLOCKER_LISTS_FROM - 1
        monkeypatch.setattr(borel, "_blockers", refuse)
        for p in (0, 2, 3):
            ch = Characteristic(p)
            assert count_strongly_stable(below, 4, ch) > 0
            assert enumerate_strongly_stable(below, 4, ch)
        for c in default_grid():
            count_strongly_stable(c.partition, c.n, c.char)
        at = GotzmannPartition((0,) * reeves.BLOCKER_LISTS_FROM)
        with pytest.raises(AssertionError, match="below the constant"):
            count_strongly_stable(at, 4)
