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

The walk never computes a Hilbert polynomial from scratch.  It carries
the numerator N(t) of each ideal's Hilbert series N(t)/(1-t)^(n+1) in
K[x_0, ..., x_n], since both of its moves change N in closed form: the
start ideal has N = (1-t)^c, an expansion at a generator of degree a
adds t^a (1-t)^n (see _expanded_numerator), and a lift leaves N as it
is, because S[x_{n+1}]/I S[x_{n+1}] = (S/I)[x_{n+1}] divides both the
series and its denominator by 1 - t.  Every level ends in a dict from
each of its ideals to its numerator, which is what the next lift needs
and what enumeration_levels yields; the walk keeps no other record of a
level.

The gap, or deficit, at level j is q_j(t) - sum_i c_i C(t - i + n, n)
with each binomial read as a polynomial in t (hilbert_poly.binomial_poly).
That is an identity of polynomials, exact at every t and not only past
the regularity, so the walk evaluates it at deg q_j + 2 points and raises
ValueError unless it is constant.  All ideals of a level share n, so the
binomials are tabulated once per level (_level_columns) and each deficit
is a sum of integer products.

Within a level the ideals are expanded bucket by bucket (_descend).
Bucket s maps each ideal still s expansions short of the target to its
numerator.  The lifted ideals go into the bucket of their deficit, and
the buckets are emptied from the largest down to 1: every expansion of
an ideal in bucket s goes into bucket s - 1, unless that bucket already
holds it.  Bucket 0 is the level's output.  No ideal can land in two
buckets, because its Hilbert polynomial fixes its deficit, so
deduplicating within one bucket deduplicates the whole level.  The
walk holds each ideal a level visits at most once, drops each bucket
once it is emptied, and never stores the set of ideals reachable from
any one ideal, so its memory is bounded by the ideals of one level.

Preconditions are checked once, at the public boundary, and never inside
the walk.  The public borel.expand and borel.expandable_generators check
that their ideal is saturated and strongly stable; the walk calls their
unchecked forms _expand and _expandable instead.  That is safe because
the start ideal is saturated and strongly stable by construction, and
both expansion and lifting preserve the property, so every ideal the
walk visits has it.  The tests check it on the outputs, and check the
carried numerators against hilbert_numerator.
"""

from __future__ import annotations

from math import comb
from operator import mul

from .hilbert_poly import GotzmannPartition, binomial_poly
from .monomial_ideal import MonomialIdeal
from .borel import _expand, _expandable


def _expanded_numerator(
    num: tuple[int, ...], a: int, n: int
) -> tuple[int, ...]:
    """N_J = N_I + t^a (1-t)^n for J = _expand(I, g) in K[x_0, ..., x_n],
    where a = deg g.

    J holds every monomial of I except the g * x_n^k, k >= 0.  These are
    not in J: a generator of J dividing g * x_n^k cannot be a new one
    g * x_j, which has j < n and so more x_j, and an old generator h != g
    is free of x_n because I is saturated, so h would divide g, against
    the minimality of g.  Every other multiple of g is in J: it is
    divisible by some g * x_j with j < n, a new generator when
    j >= max(g), and otherwise in J by strong stability of J, from
    g * x_{max(g)}.  So the series of S/J exceeds that of S/I by
    t^a / (1-t), which is t^a (1-t)^n over the common denominator
    (1-t)^(n+1).
    """
    out = list(num) + [0] * (a + n + 1 - len(num))
    for k in range(n + 1):
        out[a + k] += (-1) ** k * comb(n, k)
    return tuple(out)


def _descend(buckets: dict[int, dict]) -> dict:
    """Empty the deficit buckets from the largest down; return bucket 0.

    buckets[s] maps each ideal that still needs s expansions to its
    Hilbert numerator.  Each bucket's expansions go into the next bucket
    down, deduplicated on insert.
    """
    for s in range(max(buckets, default=0), 0, -1):
        below = buckets.setdefault(s - 1, {})
        for ideal, num in buckets.pop(s, {}).items():
            n = ideal.num_vars - 1
            for g in _expandable(ideal):
                expanded = _expand(ideal, g)
                if expanded not in below:
                    below[expanded] = _expanded_numerator(num, sum(g), n)
    return buckets.get(0, {})


def _level_columns(n: int, ts, width: int) -> list[tuple[int, ...]]:
    """For each t in ts, the values C(t - k + n, n) for k < width, each
    binomial read as a polynomial in t.

    The Hilbert polynomial of a quotient of K[x_0, ..., x_n] whose series
    has numerator N, len(N) <= width, is sum(map(mul, N, column)) at the
    t of each column.
    """
    return [tuple(binomial_poly(t, n - k, n) for k in range(width)) for t in ts]


def enumeration_levels(partition: GotzmannPartition, n: int):
    """Yield each level of the walk, ending in K[x_0, ..., x_n], as a dict
    from every ideal of the level to its Hilbert numerator.

    Level j holds the ideals whose Hilbert polynomial is
    difference^(d-j)(partition), d = partition.degree.
    """
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
    # Hilbert numerators of the current ideals: (1-t)^c for the start
    nums = {start: tuple((-1) ** k * comb(c, k) for k in range(c + 1))}
    for j, target in enumerate(targets):
        if j > 0:
            nums = {ideal.lift(): num for ideal, num in nums.items()}
        ts = range(j + 2)  # deg q_j + 2 points
        target_values = [target.evaluate(t) for t in ts]
        # the ideals of level j live in K[x_0, ..., x_{c+j}]
        columns = _level_columns(c + j, ts, max(map(len, nums.values()), default=0))
        buckets: dict[int, dict] = {}
        for ideal, num in nums.items():
            deltas = {
                q - sum(map(mul, num, column))
                for q, column in zip(target_values, columns)
            }
            if len(deltas) != 1:
                raise ValueError(
                    f"Hilbert polynomial of {ideal} is not {target} plus a constant"
                )
            deficit = deltas.pop()
            if deficit >= 0:
                buckets.setdefault(deficit, {})[ideal] = num
        nums = _descend(buckets)
        yield nums


def enumerate_strongly_stable(
    partition: GotzmannPartition, n: int
) -> frozenset[MonomialIdeal]:
    """All saturated strongly stable ideals in K[x_0, ..., x_n] with the
    given Hilbert polynomial, as a canonical deduplicated set."""
    for level in enumeration_levels(partition, n):
        pass
    return frozenset(level)
