"""Shared helpers: independent brute-force oracles and small ideal zoos.

The counting oracle here deliberately avoids every library code path used
to compute Hilbert data, so that library results are checked against an
implementation that cannot share their bugs.
"""

from bisect import insort
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from borelpoints import (
    CHAR0,
    GotzmannPartition,
    MonomialIdeal,
    NotAdmissibleError,
    SampledPolynomial,
    binomial,
    borel_closure,
    monomials_of_degree,
    peel_to_partition,
)
from borelpoints.borel import exchange, exchange_amounts
from borelpoints.monomial_ideal import canonical_key, max_index


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


def hilbert_function_by_enumeration(ideal, d):
    """Reference Hilbert function: walk every degree-d monomial."""
    return sum(
        1 for m in monomials_of_degree(d, ideal.num_vars) if not ideal.contains(m)
    )


def hilbert_function_by_lcm(ideal, d):
    """Reference Hilbert function: inclusion-exclusion over generator lcms.

    Subsets whose lcm exceeds degree d contribute nothing and the lcm degree
    only grows, so the subset walk is pruned hard at that horizon.
    """
    n = ideal.num_vars - 1
    gens = ideal.gens
    total = 0

    def walk(start, cur, size):
        nonlocal total
        if cur is not None:
            total += (-1) ** size * binomial(d - sum(cur) + n, n)
        for i in range(start, len(gens)):
            nxt = gens[i] if cur is None else tuple(map(max, cur, gens[i]))
            if sum(nxt) <= d:
                walk(i + 1, nxt, size + 1)

    walk(0, None, 0)
    return binomial(d + n, n) + total


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


def acceptance_sweep_cells():
    """The (partition, n) cells of the acceptance sweep (criterion 3):
    Gotzmann number <= 6, degree <= 3, codimension 2 or 3."""
    return [
        (GotzmannPartition(parts), c + parts[0])
        for parts in all_partitions(6, 3)
        for c in (2, 3)
    ]


@st.composite
def saturated_strongly_stable(draw):
    """A saturated strongly stable ideal other than the unit ideal: the
    saturated Borel closure of up to three small monomials."""
    num_vars = draw(st.integers(2, 4))
    monomial = st.lists(
        st.integers(0, 3), min_size=num_vars, max_size=num_vars
    ).filter(lambda e: 1 <= sum(e) <= 4)
    gens = draw(st.lists(monomial, min_size=1, max_size=3))
    I = borel_closure([tuple(g) for g in gens], CHAR0, num_vars).saturate()
    assume(not I.is_unit)
    return I


def from_macaulay(e):
    """The Gotzmann partition of a Macaulay partition, by name."""
    return e.to_gotzmann()


def constant_difference(p, q):
    """The constant value of p - q, when p - q is a constant polynomial.

    Evaluates both on enough points to determine the difference and raises
    if the values are not all equal.
    """
    d = max(p.degree, q.degree)
    deltas = {p.evaluate(t) - q.evaluate(t) for t in range(d + 2)}
    if len(deltas) != 1:
        raise ValueError("difference of polynomials is not constant")
    return deltas.pop()


def trim(coefficients):
    """A coefficient tuple without its trailing zeros."""
    coefficients = tuple(coefficients)
    while coefficients and coefficients[-1] == 0:
        coefficients = coefficients[:-1]
    return coefficients


def reference_hilbert_polynomial(ideal):
    """The Hilbert polynomial by sampling, as a cross-check of the exact
    engine: (polynomial, stabilization_degree), or None when the window
    never stabilizes.

    Samples the Hilbert function on a window based at
    D = maxgendeg + num_vars, peels the partition, then verifies
    agreement at three further degrees.  On verification failure the
    window base is doubled, up to three times.  An all-zero window yields
    the zero polynomial, reported as None.
    """
    n = ideal.num_vars - 1
    base0 = max(ideal.max_generator_degree + ideal.num_vars, 1)
    width = n + 3
    for doublings in range(4):
        base = base0 * 2**doublings
        window = [ideal.hilbert_function(d) for d in range(base, base + width)]
        checks = range(base + width, base + width + 3)
        if not any(window):
            part = None
        else:
            try:
                part = peel_to_partition(SampledPolynomial(base, tuple(window)))
            except NotAdmissibleError:
                continue
        expected = (lambda d: 0) if part is None else part.evaluate
        if all(ideal.hilbert_function(d) == expected(d) for d in checks):
            stab = 0
            for d in range(base + width + 2, -1, -1):
                if ideal.hilbert_function(d) != expected(d):
                    stab = d + 1
                    break
            return part, stab
    return None


def reference_expandable(I):
    """The expandable generators of a saturated strongly stable ideal, by
    the definition: g is blocked when x_i^{-1} x_{i+1} g is a generator
    for some x_i dividing g, i < n - 1.  The library's borel._expandable
    tests the same in one pass."""
    n = I.num_vars - 1
    gen_set = frozenset(I.gens)
    return [
        g
        for g in I.gens
        if not any(
            g[i] > 0 and exchange(g, i + 1, i, 1) in gen_set for i in range(n - 1)
        )
    ]


def reference_expand(I, g):
    """The expansion of I at the expandable generator g, each new multiple
    inserted at its canonical place by bisection on canonical_key.  The
    library's borel._expand merges them into their degree block."""
    gens = [h for h in I.gens if h != g]
    for j in range(max_index(g), I.num_vars - 1):
        insort(gens, g[:j] + (g[j] + 1,) + g[j + 1 :], key=canonical_key)
    return MonomialIdeal(I.num_vars, tuple(gens))


def reference_borel_closure(gens, ch, num_vars):
    """The Borel closure by rounds: add every legal exchange of a minimal
    generator that the ideal misses, re-minimalize, and repeat until no
    exchange is missing.  Exchanges preserve degree, so the closure lives
    in the degrees of the input and the rounds end.  The library's
    borel_closure walks the exchange orbit instead."""
    ideal = MonomialIdeal.from_generators(gens, num_vars)
    while True:
        missing = []
        for g in ideal.gens:
            for j in range(1, num_vars):
                for k in exchange_amounts(g[j], ch):
                    for i in range(j):
                        v = exchange(g, i, j, k)
                        if not ideal.contains(v):
                            missing.append(v)
        if not missing:
            return ideal
        ideal = MonomialIdeal.from_generators(ideal.gens + tuple(missing), num_vars)


def reference_search_levels(partition, n, ch):
    """The exhaustive search on MonomialIdeal values, with no guard.

    The library's search_levels runs the same branching on bitsets; this
    version takes its orbits from reference_borel_closure, joins generator
    sets with from_generators and evaluates the Hilbert function through
    the numerator, so the two can be compared level by level.
    """
    r = partition.gotzmann_number
    num_vars = n + 1
    checkpoints = [r + i for i in range(partition.degree + 2)]
    targets = {d: partition.evaluate(d) for d in checkpoints}
    p_r = targets[r]

    def viable(ideal):
        return all(ideal.hilbert_function(d) >= targets[d] for d in checkpoints)

    closures = {}

    def orbit_candidates(ideal, deg):
        seen = {}
        for body in monomials_of_degree(deg, num_vars - 1):
            m = body + (0,)
            if ideal.contains(m):
                continue
            if m not in closures:
                closures[m] = reference_borel_closure((m,), ch, num_vars)
            orbit = closures[m]
            seen.setdefault(orbit.gens, orbit)
        return [seen[k] for k in sorted(seen)]

    states = {MonomialIdeal.zero(num_vars)}
    for deg in range(1, r + 1):
        next_states = set()
        for ideal in states:
            orbits = orbit_candidates(ideal, deg)

            def grow(i, cur):
                if i == len(orbits):
                    if cur.hilbert_function(deg) <= p_r:
                        next_states.add(cur)
                    return
                grow(i + 1, cur)
                joined = MonomialIdeal.from_generators(
                    cur.gens + orbits[i].gens, num_vars
                )
                if joined != cur and viable(joined):
                    grow(i + 1, joined)

            grow(0, ideal)
        states = next_states
        yield set(states)
