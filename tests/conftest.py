"""Shared helpers: independent brute-force oracles and small ideal zoos.

The counting oracle here deliberately avoids every library code path used
to compute Hilbert data, so that library results are checked against an
implementation that cannot share their bugs.
"""

from itertools import combinations_with_replacement

import pytest

from borelpoints import GotzmannPartition, MonomialIdeal


def brute_standard_count(gens, num_vars, d):
    """Number of degree-d monomials divisible by no generator.

    Monomials of degree d are generated as multisets of d variable picks;
    nothing from the package's Hilbert machinery is used.
    """
    total = 0
    for picks in combinations_with_replacement(range(num_vars), d):
        exps = [0] * num_vars
        for i in picks:
            exps[i] += 1
        if not any(all(g[i] <= exps[i] for i in range(num_vars)) for g in gens):
            total += 1
    return total


def ideal(gens, num_vars):
    return MonomialIdeal.from_generators(gens, num_vars)


@pytest.fixture(scope="session")
def ideal_zoo():
    """A deterministic mix of shapes: zero, unit, powers, stable, lex-like."""
    return [
        MonomialIdeal.zero(3),
        MonomialIdeal.unit(3),
        ideal([(1, 0, 0)], 3),
        ideal([(1, 0, 0), (0, 1, 0)], 3),
        ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3),
        ideal([(2, 0, 0), (0, 2, 0)], 3),
        ideal([(1, 0, 0), (0, 3, 0)], 3),
        ideal([(1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)], 4),
        ideal([(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 3, 0, 0)], 4),
        ideal([(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)], 4),
        ideal([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 3),
        ideal([(0, 0, 2)], 3),
        ideal([(1, 2, 0), (0, 0, 4)], 3),
    ]


def all_partitions(max_length, max_part):
    """Weakly decreasing nonnegative tuples, for grid-style tests."""
    out = []

    def extend(prefix, length):
        if len(prefix) == length:
            out.append(prefix)
            return
        for nxt in range(prefix[-1], -1, -1):
            extend(prefix + (nxt,), length)

    for r in range(1, max_length + 1):
        for first in range(max_part, -1, -1):
            extend((first,), r)
    return out


def mini_grid():
    """Small (partition, n) cells for the Reeves walk."""
    cells = []
    for parts in all_partitions(4, 2):
        for c in (2, 3):
            cells.append((GotzmannPartition(parts), c + parts[0]))
    return cells
