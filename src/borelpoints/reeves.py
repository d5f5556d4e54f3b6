"""Enumeration of saturated strongly stable ideals by expansion and lifting.

This is Reeves' recursive generation scheme.  Writing d for the degree of
the target polynomial p, the level-j target is the backward difference
q_j = difference^(d-j)(p), a polynomial of degree j.  The walk starts
from the linear ideal <x_0, ..., x_{c-1}> in c+1 variables (c = n - d),
whose Hilbert polynomial is the constant 1.  At each level the gap
between an ideal's Hilbert polynomial and the level target is a
nonnegative constant, and it is closed by performing that many single
expansions in all possible ways (each expansion raises the Hilbert
polynomial by one); the survivors are then lifted unchanged into a ring
with one more variable for the next level.  Lifting can overshoot the
next target by a constant, and ideals whose gap would be negative are
dropped.

Preconditions are checked once, at the public boundary, and never inside
the walk.  The public borel.expand and borel.expandable_generators check
that their ideal is saturated and strongly stable; the walk calls their
unchecked forms _expand and _expandable instead.  That is safe because
the start ideal is saturated and strongly stable by construction, and
both expansion and lifting preserve the property, so every ideal the
walk visits has it.  The tests check it on the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hilbert_poly import GotzmannPartition, constant_difference
from .monomial_ideal import MonomialIdeal
from .borel import _expand, _expandable


@dataclass(frozen=True)
class ReevesState:
    """Snapshot of one level of the walk: all ideals matching target q_level."""

    level: int
    target: GotzmannPartition
    ideals: frozenset[MonomialIdeal]


def _expansions(
    ideal: MonomialIdeal, steps: int, memo: dict
) -> frozenset[MonomialIdeal]:
    """All ideals reachable from ideal by exactly `steps` expansions."""
    if steps == 0:
        return frozenset((ideal,))
    key = (ideal, steps)
    if key not in memo:
        out = set()
        for g in _expandable(ideal):
            out |= _expansions(_expand(ideal, g), steps - 1, memo)
        memo[key] = frozenset(out)
    return memo[key]


def enumeration_levels(partition: GotzmannPartition, n: int):
    """Yield the ReevesState after each level, ending in K[x_0, ..., x_n]."""
    if n <= partition.degree:
        raise ValueError("ambient dimension must exceed the polynomial degree")
    d = partition.degree
    targets = [partition]
    for _ in range(d):
        targets.append(targets[-1].difference())
    targets.reverse()  # targets[j] = difference^(d-j)(partition)

    c = n - d
    start = MonomialIdeal.from_generators(
        [tuple(1 if i == k else 0 for i in range(c + 1)) for k in range(c)],
        c + 1,
    )
    current: frozenset[MonomialIdeal] = frozenset((start,))
    memo: dict = {}
    for j, target in enumerate(targets):
        if j > 0:
            current = frozenset(ideal.lift() for ideal in current)
        survivors = set()
        for ideal in current:
            p_ideal = ideal.hilbert_polynomial().polynomial
            deficit = constant_difference(target, p_ideal)
            if deficit < 0:
                continue
            survivors |= _expansions(ideal, deficit, memo)
        current = frozenset(survivors)
        yield ReevesState(j, target, current)


def enumerate_strongly_stable(
    partition: GotzmannPartition, n: int
) -> frozenset[MonomialIdeal]:
    """All saturated strongly stable ideals in K[x_0, ..., x_n] with the
    given Hilbert polynomial, as a canonical deduplicated set."""
    state = None
    for state in enumeration_levels(partition, n):
        pass
    return state.ideals
