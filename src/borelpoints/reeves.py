"""Enumeration of saturated Borel-fixed ideals by expansion and lifting.

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

The walk never computes a Hilbert polynomial from scratch.  For I in
S = K[x_0, ..., x_n] write the numerator of the Hilbert series
N(t)/(1-t)^(n+1) of S/I as N(t) = sum_i h_i (1-t)^i, so that
h_i = (-1)^i sum_k N_k C(k, i).  The series is sum_i h_i / (1-t)^(n+1-i),
whose terms with i > n are polynomials, so the Hilbert polynomial of S/I
is sum_{i <= n} h_i C(t + n - i, n - i), each binomial read as a
polynomial in t.  The walk carries each ideal's coordinates
h_c, ..., h_{c+d}.  The start ideal has N = (1-t)^c, so h = (1, 0, ..., 0);
an expansion at a generator of degree a adds (-1)^i C(a, i) to h_{n+i}
(_expanded_coordinates); and a lift leaves N and h as they are, because
S[x_{n+1}]/I S[x_{n+1}] = (S/I)[x_{n+1}] divides both the series and its
denominator by 1 - t.  So h_i = 0 for i < c throughout, the expansions
of level j, in K[x_0, ..., x_{c+j}], change only h_{c+j} and above, and
what they add past h_{c+d} no level reads.

The gap, or deficit, at level j is one subtraction.  Write
p(t) = sum_{m <= d} tau_m C(t + m, m) (GotzmannPartition.coordinates,
which hilbert_poly.peel_to_partition inverts; hilbert_polynomial reads
tau_m = h_{n-m} off a numerator).  The backward difference takes
C(t + m, m) to C(t + m - 1, m - 1) and C(t, 0) to 0, so
q_j = sum_{m <= j} tau_{m+d-j} C(t + m, m), while an ideal of level j
has the polynomial sum_{m <= j} h_{c+j-m} C(t + m, m).  An ideal lifted
into level j ended level j - 1 with h_{c+k} = tau_{d-k} for k < j, and
the expansions of level j leave those alone, so its deficit is the
constant tau_{d-j} - h_{c+j}, and each expansion lowers it by one.  The
walk carries the deficit apart from the coordinates, so it checks that
every ideal it reaches with deficit 0 has h_{c+j} = tau_{d-j}, and
raises ValueError otherwise.

The walk is depth first, on one explicit stack of entries
(keys, h, last, j, s): an ideal of level j, as the keys of its
generators (see "Keys" below), its coordinates, the generator last at
which it was built (see below), and its deficit s.
An entry of deficit s > 0 is replaced by its expansions, each of
deficit s - 1.  An entry of deficit 0 is an ideal of level j; below
level d it is replaced by its lift, of deficit tau_{d-j-1} - h_{c+j+1},
unless that is negative.  The depth of the walk is the sum of the
deficits on a path, about k for k points, so it uses no recursion.

The walk runs in every characteristic: in characteristic p > 0 it
enumerates the saturated Borel-fixed (p-Borel) ideals, in
characteristic 0 the saturated strongly stable ones.  Everything below
is in S = K[x_0, ..., x_n], I is a saturated Borel-fixed ideal of S,
"legal" refers to Pardue's rule (borel.digitwise_leq), and tuple order
is plain tuple order, in which a legal exchange moves a monomial up.

- Expandable.  A non-unit minimal generator g of I is expandable when
  no blocker v = x_i^{-k} x_j^k g (i < j < n, 1 <= k <= g_i, k digitwise
  below g_j + k) lies in I; by the lemmas at borel._expandable_keys,
  which tests this in every characteristic, exactly when no adjacent
  p-power blocker x_l^{-q} x_{l+1}^q g is a generator of I.  The
  expansion (borel._expand_keys) drops g and adds every g x_i with
  i < n that no other generator divides; by the proof at
  _expanded_coordinates it gives
  J = I minus the g x_n^m, m >= 0, a saturated ideal whose Hilbert
  polynomial is one more than that of I.  J is Borel-fixed exactly when
  g is expandable.  A legal exchange of some w in J stays in I, so it
  leaves J only if it lands on some g x_n^m.  An exchange out of x_n
  would put x_i^{-k} g x_n^(m+k) in I, so x_i^{-k} g in I as I is
  saturated, against the minimality of g.  For j < n, w = v x_n^m, and
  neither the legality of the exchange, which compares k with
  w_j = g_j + k, nor whether w is in J depends on m.
- Complete.  Let J be saturated and Borel-fixed with polynomial q_j,
  S' = K[x_0, ..., x_{n-1}], J' = J restricted to x_n = 0, the ideal
  of S' with the generators of J, and J'' = J' : x_{n-1}^infinity.  As
  S/J = (S'/J')[x_n], S'/J' has polynomial q_{j-1}.  J'' is
  Borel-fixed: an exchange of a generator h / x_{n-1}^e of J'' is the
  same exchange of h, divided by x_{n-1}^e, and none moves an exponent
  out of x_{n-1}, which the generator lacks.  For a Borel-fixed ideal,
  saturating in the last variable saturates, so J'' is saturated with
  polynomial q_{j-1}, by induction an ideal of level j - 1, and it
  lifts to L = J'' S at level j.  At level 0, S'/J' has finite length
  and L is the start ideal instead, whose L' = (x_0, ..., x_{c-1})
  holds J' as J is proper; above level 0 write L' for J''.  Then
  R(J), the set of monomials of L' that miss J', is finite, and
  HP(S/J) - HP(S/L) = |R(J)|: L is |R(J)| expansions short of q_j.  If
  R(J) is not empty, let u be its largest element in tuple order.
  Every u x_i, i < n, and every legal exchange of u is in L' and larger
  in tuple order, so not in R(J) but in J'.  Hence I = J + (u) is saturated and
  Borel-fixed, u is a minimal generator of it, not the unit as L' is
  proper, and u is expandable in I, since a v as above in I would lie
  in J and exchange to u in J.  Expanding I at u gives J, as the u x_i
  are in J.  The only monomial of I' that misses J' is u, as every
  other multiple of u in S' is a multiple of some u x_i, so I lies
  under the same L with R(I) = R(J) minus u.  Peeling R(J) one element
  at a time thus leads from J up to L.

The walk builds each ideal once, from one canonical parent, by reverse
search (Avis and Fukuda, "Reverse search for enumeration", 1996), and
searches no set of ideals for duplicates.  Every entry carries the
generator last at which it was built, () for the lifted and start
ideals, and is expanded only at its expandable generators g > last in
tuple order; borel._expandable_keys tests no other generator for
blocking.  The argument is the same in every characteristic.

- One step.  Let J be the expansion of I at g.  As g is free of x_n, J
  misses exactly the g x_n^m of I, so I = J + (g) and J' = I' minus g.
  As g x_{n-1} is in J', J'' = I'', so J lies under the same L as I,
  and R(J) = R(I) + {g}, with g not in R(I) as g is in I'.
- Last is max R.  A lifted ideal is a saturated ideal of the previous
  level extended to S, so its J' is saturated, J'' = J' and R is empty;
  the start ideal is its own L, so its R is empty too.  By induction on
  the walk, last = max R(J) for every entry, () standing for the empty
  set: the walk expands I at g only when g > last = max R(I), and then
  max R(J) = g.
- One parent.  So the walk builds J only at g = max R(J), only from
  I = J + (g), and never an ideal whose R is empty.  The lifts of a
  level are distinct, so by induction on |R| it holds each ideal at
  most once.
- The canonical parent is in the walk.  If J is not the L it lies
  under, R(J) is not empty, and with u = max R(J) the peeling above
  gives the parent I = J + (u), under the same L, with max R(I) < u.
  By induction on |R| the walk builds I from L, and it expands I at u.

So the walk builds every ideal exactly once: it makes one expansion
per ideal and needs no membership test.  The stack holds the path from
the start to the entry at hand and, for each entry on it, the
expansions or the lift not yet walked, so a count's memory is bounded
by the path, plus, in a walk whose Gotzmann number r is at least
BLOCKER_LISTS_FROM, one blocker list per distinct generator key (see
"Blocker lists").  enumeration_levels also keeps every ideal of every
level.

Counting.  count_strongly_stable reads the size of the last level
without making the expansions that end it.  Its ideals are the lifted
entries of deficit 0, whose R is empty, and one expansion of an entry
of deficit 1 at each of the entry's expandable generators g > last,
whose R holds g.  By the argument above, no two of these are the same
ideal, none equals a lifted one, and every ideal of the level is one of
them: an ideal with R(J) empty is lifted, and any other is built from
its canonical parent, which is one expansion short.  So the count adds
1 for an entry of level d and deficit 0, and the number of its
expandable generators above last for one of deficit 1, which it does
not expand.  Only the coordinate h_{c+d} tells the count anything, as
an expansion at level d changes no other: it adds C(a, 0) = 1 to it.  So the count checks
h_{c+d} = tau_0 - 1 on an entry of deficit 1, which is the check its
expansions would meet.  A count with r at least BLOCKER_LISTS_FROM
holds its path plus one blocker list per distinct generator key it
tests, and nothing of either once it returns.

Pruning.  The count also builds no entry below level d whose every
completion to its level lifts with a negative deficit, which the walk
would drop.  Take an entry of level j < d, with deficit s, coordinates
h, and generators of degree at most D.  An expansion at a generator of
degree a <= D lowers h_{c+j+1} by exactly a, the C(a, 1) term of
_expanded_coordinates, and the generators it adds, the g x_k, have
degree a + 1, so those of the expansion have degree at most
max(D, a + 1) <= D + 1.  So the s expansions that complete the entry
to an ideal of level j lower h_{c+j+1} by at most
D + (D + 1) + ... + (D + s - 1) = s D + s (s - 1) / 2, and if
h_{c+j+1} - s D - s (s - 1) / 2 > tau_{d-j-1}, every such ideal has
h_{c+j+1} above tau_{d-j-1}, so its lift a negative deficit: the entry
is doomed.  The count tests an expansion at g, of degree a, before
building it or any of its coordinates, on the one coordinate the test
reads, h_{c+j+1} - a, with its deficit s - 1 and the bound
max(D, a + 1), D the degree of the last generator key, the top degree
of I (canonical order sorts by degree); and a lift to level j + 1 < d
before making it, with its deficit and D, on h_{c+j+2} and
tau_{d-j-2}.  So the walk builds coordinates only for the expansions it
keeps, and at level d, where each expansion adds 1 to h_{c+d} alone,
the expansions of one entry share one coordinate tuple.  At deficit 0
the test is the lift's negative deficit itself, so those ideals of
level j are not built either.  Every child of a doomed entry is
doomed: an expansion, with t = s - 1, a <= D and a degree bound
D' <= D + 1, has
h_{c+j+1} - a - t D' - t (t - 1) / 2 >= h_{c+j+1} - s D - s (s - 1) / 2,
and a doomed entry of deficit 0 has no lift.  So the count skips
exactly the doomed entries, none of which leads to an ideal of level d,
and its number is unchanged.  The bound reads only tau, h and the top
degree.  enumeration_levels keeps every ideal of every level, and does
not prune.

Keys.  The walk holds each monomial as one integer key of a
borel.KeyLayout made once per call for the N = n + 1 variables of the
last level.  Its fields have w + 1 bits, w = _key_width(r), the bits
of r + 2 for the Gotzmann number r, so that a field holds exponents up
to mask = 2^w - 1 >= r + 2.  Integer order is canonical order, so the
generators of an ideal are a sorted tuple of keys.  A monomial of fewer
variables has the key of its lift, so a lift keeps every key.  A new
multiple g x_k, and a blocker of g, is one addition to the key of g.
The walk reads a degree as key >> B, B = N (w + 1), and last is the
low part key & (2^B - 1) of the key of the generator the entry was
built at, or 2^B for none, so that g > last in tuple order is
low(g) < last.  The moves are borel._expandable_keys and
borel._expand_keys, and only enumeration_levels decodes keys, each
once per level, for the ideals it keeps.

Blocker lists.  An expansion keeps every generator but the one it
replaces, and a lift keeps every key, so a walk tests one generator key
for expandability at many ideals.  When r is at least
BLOCKER_LISTS_FROM, count_strongly_stable and enumeration_levels pass
_search a new dict, which it hands to every call of
borel._expandable_keys.  There each key's adjacent p-power blockers,
borel._blockers, are listed as a frozenset on its first test, and every
test is then one disjointness test of that set against the generator
key tuple, with no set of the keys built per call.
The list depends on the key, the layout and p only, not on the level
(Lemma 3 at borel._expandable_keys), so one dict serves the whole walk,
and it is dropped when the walk returns.  The count at 24 points in P^4
lists 102 keys, and at 34 points 157.  Below the constant the walks
are short, the lists cost more than they save, and every test is the
early-exit loop.

The walk raises ValueError rather than build an expansion of degree
a + 1 > mask - 1, whose exponents a field might not hold.  That never
happens.  An entry of level j and deficit s is a saturated ideal with
Hilbert polynomial q_j - s.  Appending s zero parts to the Gotzmann
partition of q_j - s gives that of q_j, as each adds C(t - m, 0) = 1,
so q_j - s has the Gotzmann number r_j - s, r_j that of q_j; and
r_j <= r, as the backward difference drops the zero parts of a
partition and lowers the others by one.  By Gotzmann's regularity
theorem the generators of the entry, and so its blockers, have degree
at most r_j - s <= r, and an expansion, made only at s >= 1, has degree
at most r_j - s + 1 <= r <= mask - 2.

Preconditions are checked once, at the public boundary, and never inside
the walk.  The public borel.expand and borel.expandable_generators check
that their ideal is saturated and strongly stable; the walk calls the
unchecked moves borel._expandable_keys and borel._expand_keys instead,
in every characteristic.  That is safe because the start ideal is
saturated and Borel-fixed in every characteristic by construction, and
both expansion and lifting preserve the property, so every ideal the
walk visits has it.  The tests check it on the outputs, and check the
carried coordinates against hilbert_numerator.
"""

from __future__ import annotations

from .hilbert_poly import GotzmannPartition
from .monomial_ideal import MonomialIdeal, format_ideal
from .borel import (
    CHAR0,
    Characteristic,
    KeyLayout,
    _expand_keys,
    _expandable_keys,
    _key_width,
)


# The least Gotzmann number r at which a walk keeps one blocker list per
# generator key (see "Blocker lists" in the module docstring).  Below it
# the lists cost about as much as they save, or more.  Counting each cell
# of default_grid(r, 4, (2, 3, 4)) with Gotzmann number r, and r points
# in P^3 and P^4 at p = 0, 2, with and without the lists in turn for each
# count and gc.collect() before each (totals of 3 rounds, 2-vCPU VM),
# took 8% longer with the lists at r = 6, 4% at r = 7, as long at r = 8
# (within 0.2%, twice), and 5-6% less at r = 9 (twice), 10% at r = 10
# and 15% at r = 11.
BLOCKER_LISTS_FROM = 9


def _blocker_lists(partition: GotzmannPartition) -> dict | None:
    """The blockers argument of _search for one walk to partition: a new
    dict when its Gotzmann number is at least BLOCKER_LISTS_FROM, else
    None."""
    return {} if partition.gotzmann_number >= BLOCKER_LISTS_FROM else None


def _expanded_coordinates(h: tuple[int, ...], j: int, a: int) -> tuple[int, ...]:
    """The coordinates of an expansion of I in K[x_0, ..., x_n] at a
    generator of degree a, where h holds those of I and h[j] is h_n: each
    h_{n+i} gains (-1)^i C(a, i).

    The expansion J of I at g holds every monomial of I except the
    g * x_n^k, k >= 0.  These are not in J: a generator of J dividing
    g * x_n^k cannot be a new one g * x_i, which has i < n and so more
    x_i, and an old generator f != g is free of x_n because I is
    saturated, so f would divide g, against the minimality of g.  Every
    other multiple of g is in J: it is divisible by some g * x_i with
    i < n, which borel._expand_keys adds to J unless another generator
    of I, which stays in J, divides it.  So the series of S/J exceeds that of
    S/I by t^a / (1-t), which is t^a (1-t)^n over the common denominator
    (1-t)^(n+1), and
    t^a (1-t)^n = sum_i (-1)^i C(a, i) (1-t)^(n+i).
    """
    if j == len(h) - 1:  # every expansion of the last level
        return h[:j] + (h[j] + 1,)
    out, step = list(h[:j]), 1
    for i, x in enumerate(h[j:]):
        out.append(x + step)
        step = -step * (a - i) // (i + 1)  # (-1)^(i+1) C(a, i+1), exactly
    return tuple(out)


def _completes(x: int, target: int, t: int, top: int) -> bool:
    """Whether t more expansions of level j can leave the coordinate
    x = h_{c+j+1} at or below target = tau_{d-j-1}, the ideal's generators
    having degree at most top: the i-th lowers it by at most top + i - 1
    (see "Pruning" in the module docstring)."""
    return x - t * top - t * (t - 1) // 2 <= target


def _start(
    partition: GotzmannPartition, n: int
) -> tuple[list, tuple[int, ...], KeyLayout]:
    """The stack that starts the walk to partition in K[x_0, ..., x_n],
    holding the entry of the start ideal, the targets tau, and the key
    layout of the walk's monomials, of width _key_width(r), r the
    Gotzmann number.  tau_d counts the parts equal to d, so the start is
    never above target."""
    d, r = partition.degree, partition.gotzmann_number
    if n <= d:
        raise ValueError("ambient dimension must exceed the polynomial degree")
    tau = partition.coordinates()
    lay = KeyLayout(n + 1, _key_width(r))
    start = tuple(map(lay.zero.__add__, lay.multiply[: n - d]))  # x_k, k < c = n - d
    return [(start, (1,) + (0,) * d, lay.none, 0, tau[d] - 1)], tau, lay


def _search(
    stack: list,
    tau: tuple[int, ...],
    ch: Characteristic,
    lay: KeyLayout,
    levels: list | None = None,
    blockers: dict | None = None,
) -> int:
    """Walk the tree below the (keys, h, last, j, s) entries of stack
    depth first, emptying it (see the module docstring), and return the
    number of ideals of level d = len(tau) - 1 it reaches.  keys are the
    generator keys of an ideal of level j, in the layout lay of the last
    level's ring, and last is the low part of the key of the generator
    the entry was built at, or lay.none (see "Keys").

    With levels, a list of d + 1 dicts, add every ideal of level j to
    levels[j], as its key tuple mapped to its coordinates.  Without,
    count each entry of level d one expansion short by its expandable
    generators instead of expanding it, and build no expansion or lift
    below level d whose every completion overshoots the next level (see
    "Pruning" in the module docstring).

    blockers, None or a dict that is empty or filled only by walks with
    the layout lay and characteristic ch, is passed to every call of
    borel._expandable_keys: a dict holds the blocker list of every
    generator key the walk tests (see "Blocker lists").
    """
    d = len(tau) - 1
    B, low_mask, widest, p = lay.low_bits, lay.low_mask, lay.mask - 2, ch.value
    c = lay.num_vars - 1 - d
    count = 0
    while stack:
        keys, h, last, j, s = stack.pop()
        if s == 0:
            if h[j] != tau[d - j]:
                raise _missed(keys, c, j, lay)
            if levels is not None:
                levels[j][keys] = h
            if j == d:
                count += 1
                continue
            s = tau[d - j - 1] - h[j + 1]
            if s >= 0 and (
                levels is not None
                or j + 1 == d
                or _completes(h[j + 2], tau[d - j - 2], s, keys[-1] >> B)
            ):
                stack.append((keys, h, lay.none, j + 1, s))
        elif s == 1 and j == d and levels is None:
            if h[j] != tau[0] - 1:  # an expansion adds C(a, 0) = 1 to h_n
                raise _missed(keys, c, j, lay)
            count += len(_expandable_keys(keys, last, c + j, lay, p, blockers))
        else:
            prune = levels is None and j < d
            if prune:
                top, target, x = keys[-1] >> B, tau[d - j - 1], h[j + 1]
            h2 = None
            for g in _expandable_keys(keys, last, c + j, lay, p, blockers):
                a = g >> B
                if a > widest:
                    raise ValueError(
                        f"an expansion of degree {a + 1} overflows keys of "
                        f"width {lay.width}"
                    )
                if prune and not _completes(x - a, target, s - 1, max(top, a + 1)):
                    continue
                if h2 is None or j < d:  # at level d, h_{c+d} + 1 whatever a is
                    h2 = _expanded_coordinates(h, j, a)
                J = _expand_keys(keys, g, c + j, lay, p)
                stack.append((J, h2, g & low_mask, j, s - 1))
    return count


def _missed(keys: tuple[int, ...], c: int, j: int, lay: KeyLayout) -> ValueError:
    """The error for an ideal of level j, in K[x_0, ..., x_{c+j}], with
    the generator keys, that misses its level's target."""
    gens = tuple(lay.decode(k, c + j + 1) for k in keys)
    return ValueError(f"{format_ideal(gens)} misses its level-{j} target")


def enumeration_levels(
    partition: GotzmannPartition, n: int, ch: Characteristic = CHAR0
):
    """Yield each level of the walk in characteristic ch, ending in
    K[x_0, ..., x_n], as a dict from every ideal of the level to its
    coordinates h_c, ..., h_{c+d} (see the module docstring).

    Level j holds the saturated Borel-fixed ideals whose Hilbert
    polynomial is difference^(d-j)(partition), d = partition.degree.
    The walk is depth first, so the levels are yielded once it ends.
    """
    stack, tau, lay = _start(partition, n)
    levels = [{} for _ in tau]
    _search(stack, tau, ch, lay, levels, _blocker_lists(partition))
    c = n - partition.degree
    for j, level in enumerate(levels):
        yield lay.ideals(level, c + j + 1)


def enumerate_strongly_stable(
    partition: GotzmannPartition, n: int, ch: Characteristic = CHAR0
) -> frozenset[MonomialIdeal]:
    """All saturated Borel-fixed ideals in K[x_0, ..., x_n] with the given
    Hilbert polynomial in characteristic ch, as a canonical deduplicated
    set: the strongly stable ones in characteristic 0, the default."""
    for level in enumeration_levels(partition, n, ch):
        pass
    return frozenset(level)


def count_strongly_stable(
    partition: GotzmannPartition, n: int, ch: Characteristic = CHAR0
) -> int:
    """len(enumerate_strongly_stable(partition, n, ch)), holding only the
    path of the walk, and from a Gotzmann number of BLOCKER_LISTS_FROM on
    one blocker list per generator key (see "Blocker lists"), and without
    making the expansions that end the last level: the lifted ideals
    already on target, plus one ideal per expandable generator above last
    of each entry one expansion short (see "Counting" in the module
    docstring).  It builds no expansion or lift below the last level
    whose every completion must overshoot the next level's target (see
    "Pruning")."""
    stack, tau, lay = _start(partition, n)
    return _search(stack, tau, ch, lay, None, _blocker_lists(partition))
