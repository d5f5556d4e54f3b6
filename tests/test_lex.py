import pytest

from borelpoints import (
    GotzmannPartition,
    MonomialIdeal,
    counts_for_partition,
    expand,
    hilbert_polynomial,
    is_strongly_stable,
    lex_ideal,
    lex_ideal_from_counts,
)

from conftest import all_partitions, ideal, lift, unit_ideal


def lemma_minimal_generators(partition, n):
    """Closed-form minimal generating set, written out independently.

    Branch one: when a_0 > 0 the raw generator list is already minimal.
    Branch two: when a_j = 0 for all j <= l and a_{l+1} > 0, the list
    collapses to n - l - 1 generators with the final one unshifted.
    """
    d = partition.degree
    a = [sum(1 for b in partition.parts if b == j) for j in range(n)]
    num_vars = n + 1

    def mono(pairs):
        exps = [0] * num_vars
        for var, e in pairs:
            exps[var] += e
        return tuple(exps)

    if a[0] != 0:
        gens = []
        for i in range(n - d - 1):
            gens.append(mono([(i, 1)]))
        for k in range(d):
            pairs = [(n - d - 1 + j, a[d - j]) for j in range(k)]
            pairs.append((n - d - 1 + k, a[d - k] + 1))
            gens.append(mono(pairs))
        gens.append(
            mono([(n - d - 1 + j, a[d - j]) for j in range(d)] + [(n - 1, a[0])])
        )
        return set(gens)

    ell = 0
    while a[ell + 1] == 0:
        ell += 1
    gens = []
    for i in range(n - d - 1):
        gens.append(mono([(i, 1)]))
    for k in range(d - ell - 1):
        pairs = [(n - d - 1 + j, a[d - j]) for j in range(k)]
        pairs.append((n - d - 1 + k, a[d - k] + 1))
        gens.append(mono(pairs))
    gens.append(mono([(n - d - 1 + j, a[d - j]) for j in range(d - ell)]))
    return set(gens)


class TestConstruction:
    def test_counts_example(self):
        assert lex_ideal_from_counts((3, 0, 0)) == ideal(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0)], 4
        )

    def test_counts_twisted_cubic(self):
        assert lex_ideal_from_counts((1, 3, 0)) == ideal(
            [(1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)], 4
        )

    def test_all_zero_counts_collapse_to_unit(self):
        # the raw generator list ends with the unit monomial
        assert lex_ideal_from_counts((0, 0, 0)) == unit_ideal(4)

    def test_from_partition_examples(self):
        assert lex_ideal(GotzmannPartition((0, 0, 0)), 2) == ideal(
            [(1, 0, 0), (0, 3, 0)], 3
        )
        assert lex_ideal(GotzmannPartition((0, 0, 0, 0)), 2) == ideal(
            [(1, 0, 0), (0, 4, 0)], 3
        )
        assert lex_ideal(GotzmannPartition((1, 1, 1, 0)), 3) == ideal(
            [(1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)], 4
        )

    def test_counts_for_partition(self):
        assert counts_for_partition(GotzmannPartition((1, 1, 1, 0)), 3) == (1, 3, 0)

    def test_rejects_small_ambient(self):
        with pytest.raises(ValueError):
            lex_ideal(GotzmannPartition((2, 1)), 2)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            lex_ideal_from_counts((1, -1))


def grid_cells():
    cells = []
    for parts in all_partitions(6, 3):
        for extra in (1, 2, 3):
            cells.append((GotzmannPartition(parts), parts[0] + extra))
    return cells


class TestLexInvariants:
    def test_hilbert_polynomial_identity(self):
        for partition, n in grid_cells():
            L = lex_ideal(partition, n)
            assert hilbert_polynomial(L).polynomial == partition, (
                partition.parts,
                n,
            )

    def test_strongly_stable_and_saturated(self):
        for partition, n in grid_cells():
            L = lex_ideal(partition, n)
            assert is_strongly_stable(L)
            assert L.saturate() == L

    def test_matches_lemma_generator_formula(self):
        for partition, n in grid_cells():
            L = lex_ideal(partition, n)
            assert set(L.gens) == lemma_minimal_generators(partition, n), (
                partition.parts,
                n,
            )

    def test_increment_is_expansion_at_last_generator(self):
        for partition, n in grid_cells():
            L = lex_ideal(partition, n)
            expanded = expand(L, L.gens[-1])
            assert expanded == lex_ideal(partition.increment(), n), (
                partition.parts,
                n,
            )

    def test_lift_compatibility(self):
        for partition, n in grid_cells():
            L = lex_ideal(partition, n)
            assert lift(L) == lex_ideal(partition.lift(), n + 1)
