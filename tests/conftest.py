"""Shared helpers: independent brute-force oracles and small ideal zoos.

The counting oracle here deliberately avoids every library code path used
to compute Hilbert data, so that library results are checked against an
implementation that cannot share their bugs.
"""

from bisect import insort
from functools import lru_cache, partial
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from borelpoints import (
    CHAR0,
    GotzmannPartition,
    MonomialIdeal,
    NotAdmissibleError,
    binomial,
    binomial_poly,
    borel_closure,
    expand,
    monomials_of_degree,
)
from borelpoints.borel import (
    KeyLayout,
    _expand_keys,
    _expandable_keys,
    _key_width,
    exchange,
    exchange_amounts,
)
from borelpoints import monomial_ideal
from borelpoints.monomial_ideal import canonical_key, divides
from borelpoints.reeves import _completes, _expanded_coordinates


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


def zero_ideal(num_vars):
    return MonomialIdeal(num_vars, ())


def unit_ideal(num_vars):
    return MonomialIdeal(num_vars, ((0,) * num_vars,))


def lift(I):
    """The same generators in a ring with one more variable."""
    return MonomialIdeal(I.num_vars + 1, tuple(g + (0,) for g in I.gens))


def difference(I):
    """The image of I under setting its last two variables to 1, in one
    variable fewer.  For a saturated Borel-fixed ideal the Hilbert
    polynomial of the result is the backward difference of that of I."""
    if I.num_vars < 2:
        raise ValueError("need at least two variables")
    cut = [g[: I.num_vars - 2] + (0,) for g in I.gens]
    return MonomialIdeal.from_generators(cut, I.num_vars - 1)


@pytest.fixture(scope="session", autouse=True)
def numerator_memo():
    """One memo of monomial_ideal._numerator for the whole session.

    The library keeps no process-wide cache.  The tests ask for the
    numerator of one ideal many times (hilbert_function once per degree,
    and the same ideals in many tests), and every caller reaches
    _numerator through the module global, so rebinding that to a cached
    wrapper memoizes whole numerators.  The pivot loop makes no call
    back, so subproblems are not shared.  A cached result is shared by
    every caller, so none may mutate what _numerator returns."""
    raw = monomial_ideal._numerator
    monomial_ideal._numerator = lru_cache(maxsize=None)(raw)
    yield
    monomial_ideal._numerator = raw


@pytest.fixture(scope="session")
def ideal_zoo():
    """A deterministic mix of shapes: zero, unit, powers, stable, lex-like."""
    return [
        zero_ideal(3),
        unit_ideal(3),
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


def reference_is_saturated(ideal):
    """Whether I equals I : m^infinity, m the irrelevant ideal, by brute
    force: I is not saturated exactly when some monomial f outside I has
    f x_i^N in I for every i.  Capping each exponent of f at the largest
    exponent M_j of x_j in a generator, with N = max M_j, changes neither
    test, so the box 0 <= f_j <= M_j holds a witness if there is one."""
    caps = [max((g[j] for g in ideal.gens), default=0) for j in range(ideal.num_vars)]
    N = max(caps, default=0)
    for f in product(*(range(c + 1) for c in caps)):
        if ideal.contains(f):
            continue
        if all(
            ideal.contains(f[:i] + (f[i] + N,) + f[i + 1 :])
            for i in range(ideal.num_vars)
        ):
            return False
    return True


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
    assume(I != unit_ideal(num_vars))
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


def top_difference(values):
    """(d, D) for the polynomial through the values: its degree d, by
    finite differences, and its constant d-th difference D; (-1, 0) for
    all zeros.  A nonzero row of one value means the window is too short
    to certify the degree."""
    row, d, top = list(values), -1, 0
    while any(row):
        if len(row) == 1:
            raise NotAdmissibleError("window too short to determine a polynomial")
        d, top = d + 1, row[0]
        row = [b - a for a, b in zip(row, row[1:])]
    return d, top


def reference_peel(base, values):
    """The greedy Gotzmann peel of the values p(base), p(base + 1), ...:
    the partition of p, as a cross-check of the library's Macaulay peel
    hilbert_poly.peel_to_partition.

    The degree d of the running remainder is the next part b_j, and
    C(t + d - j + 1, d) is subtracted at every t of the window.  For an
    admissible p the top difference of the remainder counts the parts
    still to come that equal d, and each subtraction lowers it by one, so
    the peel ends after r steps on any window of deg p + 2 or more
    values.  A top difference that is not positive means p is not
    admissible.
    """
    q = list(values)
    d, top = top_difference(q)
    if d < 0:
        raise NotAdmissibleError("zero polynomial has no partition")
    parts = []
    while d >= 0:
        if top <= 0:
            raise NotAdmissibleError("the remainder's top difference is not positive")
        j = len(parts) + 1
        for k in range(len(q)):
            q[k] -= binomial_poly(base + k, d - j + 1, d)
        parts.append(d)
        d, top = top_difference(q)
    return GotzmannPartition(tuple(parts))


def reference_hilbert_polynomial(ideal):
    """The Hilbert polynomial by sampling, as a cross-check of the exact
    engine: (polynomial, stabilization_degree), or None when the window
    never stabilizes.

    Samples the Hilbert function on a window based at
    D = maxgendeg + num_vars, peels the partition with reference_peel,
    then verifies agreement at three further degrees.  On verification
    failure the window base is doubled, up to three times.  An all-zero
    window yields the zero polynomial, reported as None.
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
                part = reference_peel(base, window)
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


def on_ideal(kernel, I, m, ch):
    """Run a move of the Reeves walk on keys, borel._expandable_keys or
    borel._expand_keys, on the MonomialIdeal I in characteristic ch:
    encode the generators of I and the monomial m in the layout the
    public borel.expand uses, call kernel, and decode what it returns.
    For _expandable_keys, m is last, () for none, and the result is the
    list of expandable generators g > m in tuple order, the unit
    included; for _expand_keys, m is the generator g, and the result is
    the expansion of I at g."""
    num_vars = I.num_vars
    lay = KeyLayout(num_vars, _key_width(I.max_generator_degree))
    keys = tuple(map(lay.encode, I.gens))
    if kernel is _expand_keys:
        out = kernel(keys, lay.encode(m), num_vars - 1, lay, ch.value)
        return MonomialIdeal._trusted(num_vars, tuple(lay.decode(k, num_vars) for k in out))
    last = lay.encode(m) & lay.low_mask if m else lay.none
    out = kernel(keys, last, num_vars - 1, lay, ch.value)
    return [lay.decode(k, num_vars) for k in out]


def reference_expandable(I):
    """The expandable generators of a saturated strongly stable ideal, by
    the definition: g is blocked when x_i^{-1} x_{i+1} g is a generator
    for some x_i dividing g, i < n - 1.  The library's
    borel._expandable_keys tests the same in one pass."""
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
    """The expansion of I at the expandable generator g in characteristic
    0: the g x_j with j >= max(g) replace g, each inserted at its
    canonical place by bisection on canonical_key.  The library's
    borel._expand_keys splices the keys of the new multiples into the
    sorted key tuple by bisection."""
    gens = [h for h in I.gens if h != g]
    top = max(i for i, e in enumerate(g) if e > 0)
    for j in range(top, I.num_vars - 1):
        insort(gens, g[:j] + (g[j] + 1,) + g[j + 1 :], key=canonical_key)
    return MonomialIdeal(I.num_vars, tuple(gens))


def reference_expand_keys(keys, g, n, lay, p):
    """borel._expand_keys by copy, remove, extend and sort: the same
    survivors, by the lemma in its docstring, appended to a copy of keys
    without g, and the whole list sorted afresh.  The library splices
    each survivor into the sorted tuple by bisection instead."""
    F, mask, shifts, multiply = lay.field, lay.mask, lay.shifts, lay.multiply
    exps = lay.zero - (g & lay.low_mask)
    high = lay.num_vars - 1 - ((exps & -exps).bit_length() - 1) // F
    top = kept = high
    if p:
        e = exps >> shifts[high] & mask
        if not 0 < e % p < p - 1:
            kept += e % p == p - 1
            while top and (exps >> shifts[top] & mask) % p == 0:
                top -= 1
    out = list(keys)
    out.remove(g)
    out.extend([g + step for step in multiply[kept:n]])
    if top < kept:
        bound = (g >> lay.low_bits) + 1 << lay.low_bits
        lower = [h for h in keys if h < bound and h != g]
        for k in range(top, kept):
            m = g + multiply[k]
            if not any(lay.divides(h, m) for h in lower):
                out.append(m)
    out.sort()
    return tuple(out)


def digitwise_leq(k, l, ch):
    """Pardue's rule as a predicate: in characteristic p, whether every
    base-p digit of k is at most that of l; in characteristic 0, whether
    k = 0, or k = 1 and l >= 1 (single-step exchanges).  The library
    lists the allowed k directly, as borel.exchange_amounts."""
    if k < 0 or l < 0:
        raise ValueError("arguments must be nonnegative")
    if ch.is_zero:
        return k == 0 or (k == 1 and l >= 1)
    p = ch.value
    while k or l:
        if k % p > l % p:
            return False
        k //= p
        l //= p
    return True


def reference_borel_expandable(I, last, ch):
    """The non-unit generators g > last of a saturated Borel-fixed (for
    ch) ideal at which the expansion stays Borel-fixed, by the
    definition: g is blocked when some x_i^{-k} x_j^k g with i < j < n,
    1 <= k <= g_i and k digitwise below g_j + k lies in I, tested with
    MonomialIdeal.contains.  The library's borel._expandable_keys looks up
    only the adjacent p-power ones among the generators, by the lemmas in
    its docstring."""
    n = I.num_vars - 1
    return [
        g
        for g in I.gens
        if g > last
        and any(g)
        and not any(
            I.contains(exchange(g, j, i, k))
            for i in range(n)
            for k in range(1, g[i] + 1)
            for j in range(i + 1, n)
            if digitwise_leq(k, g[j] + k, ch)
        )
    ]


def reference_borel_expand(I, g):
    """I with g replaced by every g x_i, i < n: the multiples no other
    generator divides join the other generators, which are sorted afresh
    by canonical_key.  The library's borel._expand_keys decides most
    multiples by the lemma in its docstring, tests the rest against the
    generators of degree at most deg g only, and splices the survivors
    into the sorted key tuple."""
    rest = [h for h in I.gens if h != g]
    multiples = (g[:i] + (g[i] + 1,) + g[i + 1 :] for i in range(I.num_vars - 1))
    rest += [m for m in multiples if not any(divides(h, m) for h in rest)]
    return MonomialIdeal(I.num_vars, tuple(sorted(rest, key=canonical_key)))


def one_minus_t_power(n):
    """The coefficients of (1-t)^n."""
    return tuple((-1) ** k * comb(n, k) for k in range(n + 1))


def expanded_numerator(num, a, step):
    """N_J = N_I + t^a (1-t)^n for an expansion J of I in K[x_0, ..., x_n]
    at a generator of degree a, where step holds the coefficients of
    (1-t)^n.  The reeves module proves the rule (at
    reeves._expanded_coordinates), and the walk carries its effect on the
    coordinates of the numerator instead."""
    out = list(num) + [0] * (a + len(step) - len(num))
    for k, coefficient in enumerate(step, a):
        out[k] += coefficient
    return tuple(out)


def numerator_coordinates(num, lo, width):
    """The h_i, lo <= i < lo + width, with N(t) = sum_i h_i (1-t)^i for the
    numerator N with coefficients num: h_i = (-1)^i sum_k N_k C(k, i)."""
    return tuple(
        (-1) ** i * sum(c * comb(k, i) for k, c in enumerate(num))
        for i in range(lo, lo + width)
    )


def coordinate_step_holds(N, N_J, n, a):
    """Whether reeves._expanded_coordinates takes every coordinate of the
    numerator N of I in K[x_0, ..., x_n] to that of N_J, the numerator of
    the expansion of I at a generator of degree a."""
    width = max(len(N), n + a + 1)  # past the last nonzero coordinate
    h = numerator_coordinates(N, 0, width)
    return numerator_coordinates(N_J, 0, width) == _expanded_coordinates(h, n, a)


def reference_descend(buckets, j, ch, built=None):
    """The deficit-bucket descent that deduplicates on insert, with the
    moves _expandable_keys (run by on_ideal) and reference_expand in
    characteristic 0 and reference_borel_expandable and
    reference_borel_expand in characteristic p.  buckets maps each
    deficit s to a dict from the ideals of level j that are s expansions
    short to their coordinates.

    Every expansion of an ideal in bucket s, at every expandable
    generator, goes into bucket s - 1 unless that bucket already holds
    it; bucket 0 is returned as a dict from ideal to coordinates.  The
    descent carries numerators, from hilbert_numerator for the ideals it
    is given and by expanded_numerator for the ones it builds, and reads
    each ideal's coordinates off its numerator; it checks those against
    the given coordinates and against the library's coordinate step
    reeves._expanded_coordinates.  built, when given, collects every
    distinct ideal the descent builds.  The library's walk builds each
    ideal once, from its canonical parent, and tests no membership.
    """
    if ch.is_zero:
        expandable = partial(on_ideal, _expandable_keys, ch=ch)
        expand = reference_expand
    else:
        expandable = partial(reference_borel_expandable, ch=ch)
        expand = reference_borel_expand
    dicts = {}
    for s, bucket in buckets.items():
        dicts[s] = {}
        for I, h in bucket.items():
            num = I.hilbert_numerator()
            c = I.num_vars - 1 - j
            assert h == numerator_coordinates(num, c, len(h)), str(I)
            dicts[s][I] = num, h
    for s in range(max(dicts, default=0), 0, -1):
        below = dicts.setdefault(s - 1, {})
        for ideal, (num, h) in dicts.pop(s, {}).items():
            n = ideal.num_vars - 1
            for g in expandable(ideal, ()):
                expanded = expand(ideal, g)
                if expanded not in below:
                    num_g = expanded_numerator(num, sum(g), one_minus_t_power(n))
                    h_g = numerator_coordinates(num_g, n - j, len(h))
                    assert h_g == _expanded_coordinates(h, j, sum(g)), (str(ideal), g)
                    below[expanded] = num_g, h_g
                    if built is not None:
                        built.add(expanded)
    return {I: h for I, (_, h) in dicts.get(0, {}).items()}


def reference_levels(partition, n, ch, built=None):
    """The Reeves walk level by level, as a cross-check of the library's
    depth-first walk: the start ideal <x_0, ..., x_{c-1}>, or the lifts
    of the last level, go into buckets by their deficit to the level's
    target, ideals with a negative deficit are dropped, and
    reference_descend empties the buckets.  Returns the d + 1 levels as
    dicts from ideal to coordinates, as reeves.enumeration_levels yields
    them in the walk with no pruning, each ideal checked to meet its
    target (kept_levels gives the pruned walk's); built, when given,
    collects every distinct ideal the descents build."""
    d = partition.degree
    c = n - d
    tau = partition.coordinates()
    start = ideal([tuple(int(i == k) for i in range(c + 1)) for k in range(c)], c + 1)
    level, levels = {start: (1,) + (0,) * d}, []
    for j in range(d + 1):
        if j:
            level = {lift(I): h for I, h in level.items()}
        buckets = {}
        for I, h in level.items():
            if tau[d - j] >= h[j]:
                buckets.setdefault(tau[d - j] - h[j], {})[I] = h
        level = reference_descend(buckets, j, ch, built)
        assert all(h[j] == tau[d - j] for h in level.values()), (partition.parts, j)
        levels.append(level)
    return levels


def kept_levels(levels, tau):
    """The levels of reference_levels, with targets tau, as the pruned
    walk keeps them: the last level in full, and each lower level j < d,
    d = len(tau) - 1, with only the ideals whose lift deficit
    tau_{d-j-1} - h_{c+j+1} is nonnegative (see "Pruning" in the reeves
    module docstring)."""
    d = len(tau) - 1
    return [
        level if j == d else {I: h for I, h in level.items() if tau[d - j - 1] >= h[j + 1]}
        for j, level in enumerate(levels)
    ]


def partitions(k, most):
    """The partitions of k into parts at most most, as nonincreasing
    tuples."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, most), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def plane_partitions(k, above):
    """The plane partitions of k whose first row lies under the partition
    above, part by part, as tuples of rows, each row a partition under
    the one before it."""
    if k == 0:
        yield ()
        return
    for size in range(k, 0, -1):
        for row in partitions(size, above[0]):
            if len(row) <= len(above) and all(map(int.__le__, row, above)):
                for rest in plane_partitions(k - size, row):
                    yield (row,) + rest


def staircase_corners(heights, dim):
    """The corners of the nonempty order ideal of N^dim whose cells are
    the (e, t) with t < heights[e], heights a dict from N^(dim-1) to
    positive heights, nonincreasing along every axis: the minimal
    elements of N^dim outside it, the exponents of the minimal
    generators of the monomial ideal whose standard monomials it holds.
    They are the (e, heights[e]), a height 0 off the dict, whose every
    predecessor e - u_i is strictly higher; only the e of the dict and
    their successors can be one."""
    seeds = set(heights)
    seeds |= {e[:i] + (e[i] + 1,) + e[i + 1 :] for e in heights for i in range(dim - 1)}
    return sorted(
        e + (heights.get(e, 0),)
        for e in seeds
        if all(
            heights.get(e[:i] + (e[i] - 1,) + e[i + 1 :], 0) > heights.get(e, 0)
            for i in range(dim - 1)
            if e[i]
        )
    )


def staircase_ideals(n, most):
    """For k = 1, ..., most, the saturated monomial ideals of k points in
    P^n, n = 2 or 3, whose generators have no x_n, one per order ideal of
    size k in N^n: a partition for n = 2, a plane partition for n = 3.
    The ideal in K[x_0, ..., x_n] has the corners of the order ideal,
    which are minimal, as generators, in canonical order.  Yields
    (k, ideals).  A saturated Borel-fixed ideal of
    k points has no x_n in its generators, so in every characteristic
    the ideals that pass is_borel_fixed are those the Reeves walk to k
    points finds."""
    for k in range(1, most + 1):
        if n == 2:
            staircases = [{(a,): x for a, x in enumerate(lam)} for lam in partitions(k, k)]
        else:
            staircases = [
                {(a, b): x for a, row in enumerate(pp) for b, x in enumerate(row)}
                for pp in plane_partitions(k, (k,) * k)
            ]
        yield k, [
            MonomialIdeal(
                n + 1,
                tuple(
                    sorted(
                        (m + (0,) for m in staircase_corners(heights, n)),
                        key=canonical_key,
                    )
                ),
            )
            for heights in staircases
        ]


def brute_contractions(J):
    """C(J), the c such that J + (c) expands at c to J, by brute force.

    Tries every non-unit c = h / x_i, h a minimal generator of J, since
    an expansion at c puts a multiple c x_i among the generators, and
    keeps c when the public, checked expand of J + (c) at c gives J.
    test_reeves.listed_contractions gives C(J) in closed form.
    """
    out = set()
    for h in J.gens:
        for i, e in enumerate(h):
            c = h[:i] + (e - 1,) + h[i + 1 :]
            if e and any(c) and c not in out:
                I = MonomialIdeal.from_generators(J.gens + (c,), J.num_vars)
                try:
                    if expand(I, c) == J:
                        out.add(c)
                except ValueError:  # I is not saturated strongly stable,
                    pass  # or c is not an expandable generator of it
    return out


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

    The library's search_levels folds each degree's orbits into its states
    on bitsets; this version branches over every subset of the orbits from
    each state, takes its orbits from reference_borel_closure, joins generator
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

    states = {zero_ideal(num_vars)}
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


def reference_coordinates(partition):
    """The tau_k with p(t) = sum_{k <= d} tau_k C(t + k, k), one binomial
    per part and k, as a cross-check of GotzmannPartition.coordinates,
    which sums each run of equal parts in closed form:
    tau_k = sum_{j : b_j >= k} (-1)^(b_j - k) C(j, b_j - k)."""
    return tuple(
        sum(
            (-1) ** (b - k) * comb(j, b - k)
            for j, b in enumerate(partition.parts)
            if b >= k
        )
        for k in range(partition.degree + 1)
    )


def reference_start(partition, n):
    """The stack that starts reference_search to partition in
    K[x_0, ..., x_n], holding the entry of the start ideal, and the
    targets tau, from reference_coordinates.  tau_d counts the parts
    equal to d, so the start is never above target."""
    if n <= partition.degree:
        raise ValueError("ambient dimension must exceed the polynomial degree")
    d = partition.degree
    c = n - d
    tau = reference_coordinates(partition)
    zero = (0,) * (c + 1)
    start = MonomialIdeal._trusted(
        c + 1, tuple(zero[:k] + (1,) + zero[k + 1 :] for k in range(c))
    )
    return [(start, (1,) + (0,) * d, (), 0, tau[d] - 1)], tau


def reference_search(stack, tau, ch, levels=None):
    """The Reeves walk on MonomialIdeal values, as a cross-check of the
    library's walk on keys, reeves._search, which must pop the same
    entries in the same order: the moves are the library's key moves,
    borel._expandable_keys and borel._expand_keys, run by on_ideal,
    a lift is MonomialIdeal.lift, and last is a generator tuple, () for
    none.

    Walk the tree below the (ideal, h, last, j, s) entries of stack
    depth first, emptying it (see the reeves module docstring), and
    return the number of ideals of level d = len(tau) - 1 it reaches.

    Build no expansion or lift below level d whose every completion
    overshoots the next level (see "Pruning" there).  With levels, a list
    of d + 1 dicts, add every ideal of level j the walk reaches to
    levels[j], mapped to its coordinates.  Without, count each entry of
    level d one expansion short by its expandable generators instead of
    expanding it.
    """
    d = len(tau) - 1
    count = 0
    while stack:
        ideal, h, last, j, s = stack.pop()
        if s == 0:
            if h[j] != tau[d - j]:
                raise ValueError(f"{ideal} misses its level-{j} target")
            if levels is not None:
                levels[j][ideal] = h
            if j == d:
                count += 1
                continue
            s = tau[d - j - 1] - h[j + 1]
            if s >= 0 and (
                j + 1 == d
                or _completes(h[j + 2], tau[d - j - 2], s, sum(ideal.gens[-1]))
            ):
                stack.append((lift(ideal), h, (), j + 1, s))
        elif s == 1 and j == d and levels is None:
            if h[j] != tau[0] - 1:  # an expansion adds C(a, 0) = 1 to h_n
                raise ValueError(f"{ideal} misses its level-{j} target")
            count += len(on_ideal(_expandable_keys, ideal, last, ch))
        else:
            if j < d:
                top, target = sum(ideal.gens[-1]), tau[d - j - 1]
            for g in on_ideal(_expandable_keys, ideal, last, ch):
                a = sum(g)
                h2 = _expanded_coordinates(h, j, a)
                if j == d or _completes(h2[j + 1], target, s - 1, max(top, a + 1)):
                    J = on_ideal(_expand_keys, ideal, g, ch)
                    stack.append((J, h2, g, j, s - 1))
    return count


def decode_ideal(keys, num_vars, lay):
    """The ideal in num_vars variables whose generators have the keys of
    the KeyLayout lay, built with the checks of MonomialIdeal."""
    return MonomialIdeal(num_vars, tuple(lay.decode(k, num_vars) for k in keys))


def decode_entry(entry, lay, c):
    """An entry (keys, h, last, j, s) of reeves._search, in a walk whose
    level 0 is K[x_0, ..., x_c], as reference_search's
    (ideal, h, last, j, s): last a generator tuple, () for none."""
    keys, h, last, j, s = entry
    num_vars = c + j + 1
    last = () if last == lay.none else lay.decode(last, num_vars)
    return decode_ideal(keys, num_vars, lay), h, last, j, s


def recording_expand_keys(built):
    """A stand-in for reeves._expand_keys that appends each expansion it
    makes, decoded, to built."""

    def record(keys, g, n, lay, p):
        out = _expand_keys(keys, g, n, lay, p)
        built.append(decode_ideal(out, n + 1, lay))
        return out

    return record
