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
what they add past h_{c+d} no level reads.  Every level ends in a dict
from each of its ideals to its coordinates, which is what the next lift
needs and what enumeration_levels yields; the walk keeps no other record
of a level.

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
buckets count the expansions apart from the coordinates, so the walk
checks that every ideal of bucket 0 has h_{c+j} = tau_{d-j}, and raises
ValueError otherwise.

Within a level the ideals are expanded bucket by bucket.  Bucket s
lists the ideals still s expansions short of the target, each with its
coordinates.  The lifted ideals go into the bucket of their deficit,
and the buckets are emptied from the largest down to 1: every expansion
of an ideal in bucket s goes into bucket s - 1, and bucket 0 is the
level's output.  _descend empties the buckets down to 2 and _complete
empties bucket 1, so the last level can stop short of it (see Counting
below).  An ideal's Hilbert polynomial fixes its deficit, so no ideal
can land in two buckets.

The walk runs in every characteristic: in characteristic p > 0 it
enumerates the saturated Borel-fixed (p-Borel) ideals, in
characteristic 0 the saturated strongly stable ones.  Everything below
is in S = K[x_0, ..., x_n], I is a saturated Borel-fixed ideal of S,
"legal" refers to Pardue's rule (borel.digitwise_leq), and tuple order
is plain tuple order, in which a legal exchange moves a monomial up.

- Expandable.  A non-unit minimal generator g of I is expandable when
  no blocker v = x_i^{-k} x_j^k g (i < j < n, 1 <= k <= g_i, k digitwise
  below g_j + k) lies in I; by the lemmas at borel._expandable, which
  tests this in every characteristic, exactly when no adjacent p-power
  blocker x_l^{-q} x_{l+1}^q g is a generator of I.  The expansion
  (borel._expand) drops g and adds every g x_i with i < n that no other
  generator divides; by the proof at _expanded_coordinates it gives
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
no bucket is searched for duplicates.  Every bucket entry carries the
generator last at which it was built, () for the lifted and start
ideals, and is expanded only at its expandable generators g > last in
tuple order; _expandable tests no other generator for blocking.  The
argument is the same in every characteristic.

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
per ideal and needs no membership test.  It holds each ideal a level
visits once, drops each bucket once it is emptied, and never stores the
set of ideals reachable from any one ideal, so its memory is bounded by
the ideals of one level.

Counting.  count_strongly_stable reads the size of the last level
without making the expansions into its bucket 0.  Its ideals are the lifted ideals of deficit 0,
whose R is empty, and one expansion of an entry of bucket 1 at each of
the entry's expandable generators g > last, whose R holds g.  By the
argument above, no two of these are the same ideal, none equals a
lifted one, and every ideal of the level is one of them: an ideal with
R(J) empty is lifted, and any other is built from its canonical parent,
which is one expansion short and so in bucket 1.  So the count is
|bucket 0| plus the sum over bucket 1 of |_expandable(I, last, ch)|.
Only the coordinate h_{c+d} tells the count anything, as an expansion
at level d changes no other: it adds C(a, 0) = 1 to it.  So the count
checks h_{c+d} = tau_0 on bucket 0 and h_{c+d} = tau_0 - 1 on bucket 1,
which is the check _complete makes on the expanded level.

Preconditions are checked once, at the public boundary, and never inside
the walk.  The public borel.expand and borel.expandable_generators check
that their ideal is saturated and strongly stable; the walk calls their
unchecked forms _expandable and _expand instead, in every
characteristic.  That is safe because the start ideal is
saturated and Borel-fixed in every characteristic by construction, and
both expansion and lifting preserve the property, so every ideal the
walk visits has it.  The tests check it on the outputs, and check the
carried coordinates against hilbert_numerator.
"""

from __future__ import annotations

from math import comb

from .hilbert_poly import GotzmannPartition
from .monomial_ideal import MonomialIdeal
from .borel import CHAR0, Characteristic, _expand, _expandable


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
    i < n, which borel._expand adds to J unless another generator of I,
    which stays in J, divides it.  So the series of S/J exceeds that of
    S/I by t^a / (1-t), which is t^a (1-t)^n over the common denominator
    (1-t)^(n+1), and
    t^a (1-t)^n = sum_i (-1)^i C(a, i) (1-t)^(n+i).
    """
    return h[:j] + tuple(x + (-1) ** i * comb(a, i) for i, x in enumerate(h[j:]))


def _expansions(bucket: list, j: int, ch: Characteristic) -> list:
    """The (J, h_J, g) triple of every expansion J of every (ideal, h, last)
    triple of bucket at an expandable generator g above last in tuple
    order, h_J being J's coordinates, with h[j] = h_n for the level's ring
    K[x_0, ..., x_n].  Expanding only above last builds every ideal of the
    level exactly once, from its canonical parent J + (max R(J)) (see the
    module docstring)."""
    return [
        (_expand(ideal, g, ch), _expanded_coordinates(h, j, sum(g)), g)
        for ideal, h, last in bucket
        for g in _expandable(ideal, last, ch)
    ]


def _descend(
    buckets: dict[int, list], j: int, ch: Characteristic
) -> tuple[list, list]:
    """Empty the deficit buckets from the largest down to bucket 2, each
    into the bucket below it; take out and return buckets 0 and 1.

    buckets[s] lists an (ideal, h, last) triple for each ideal that still
    needs s expansions, where h holds its coordinates h_c, ..., h_{c+d} and
    last is the generator at which the ideal was built, or () for a lifted
    or start ideal.  _complete expands bucket 1 into bucket 0, and
    count_strongly_stable counts what that would give.
    """
    for s in range(max(buckets, default=0), 1, -1):
        buckets.setdefault(s - 1, []).extend(_expansions(buckets.pop(s), j, ch))
    return buckets.pop(0, []), buckets.pop(1, [])


def _check(entries: list, j: int, target: int) -> None:
    """Raise ValueError unless every (ideal, h, last) entry has h[j] = target."""
    for ideal, h, _ in entries:
        if h[j] != target:
            raise ValueError(f"{ideal} misses its level-{j} target")


def _complete(zero: list, one: list, j: int, ch: Characteristic, target: int) -> dict:
    """Expand bucket 1 into bucket 0 and return level j as a dict from each
    of its ideals to its coordinates, each checked to have the level's
    target coordinate h_{c+j} = target."""
    zero += _expansions(one, j, ch)
    _check(zero, j, target)
    return {ideal: h for ideal, h, _ in zero}


def _walk(partition: GotzmannPartition, n: int, ch: Characteristic):
    """Yield every level of the walk but the last, as enumeration_levels
    does; return the last level's buckets 0 and 1 and its target
    coordinate tau_0, with every bucket above 1 emptied."""
    if n <= partition.degree:
        raise ValueError("ambient dimension must exceed the polynomial degree")
    d = partition.degree
    c = n - d
    tau = partition.coordinates()
    start = MonomialIdeal._trusted(
        c + 1, tuple(tuple(int(i == k) for i in range(c + 1)) for k in range(c))
    )
    level = {start: (1,) + (0,) * d}
    for j in range(d + 1):
        if j > 0:
            level = {ideal.lift(): h for ideal, h in level.items()}
        target = tau[d - j]  # the coordinate of q_j at C(t, 0)
        buckets: dict[int, list] = {}
        for ideal, h in level.items():
            deficit = target - h[j]
            if deficit >= 0:
                buckets.setdefault(deficit, []).append((ideal, h, ()))
        zero, one = _descend(buckets, j, ch)
        if j == d:
            return zero, one, target
        level = _complete(zero, one, j, ch, target)
        yield level


def enumeration_levels(
    partition: GotzmannPartition, n: int, ch: Characteristic = CHAR0
):
    """Yield each level of the walk in characteristic ch, ending in
    K[x_0, ..., x_n], as a dict from every ideal of the level to its
    coordinates h_c, ..., h_{c+d} (see the module docstring).

    Level j holds the saturated Borel-fixed ideals whose Hilbert
    polynomial is difference^(d-j)(partition), d = partition.degree.
    """
    zero, one, target = yield from _walk(partition, n, ch)
    yield _complete(zero, one, partition.degree, ch, target)


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
    """len(enumerate_strongly_stable(partition, n, ch)), without making
    the expansions that end the last level: the lifted ideals already on
    target, plus one ideal per expandable generator above last of each
    entry one expansion short (see "Counting" in the module docstring)."""
    walk = _walk(partition, n, ch)
    try:
        while True:
            next(walk)
    except StopIteration as done:
        zero, one, target = done.value
    j = partition.degree
    _check(zero, j, target)
    _check(one, j, target - 1)  # an expansion adds C(a, 0) = 1 to h_n
    return len(zero) + sum(len(_expandable(I, last, ch)) for I, _, last in one)
