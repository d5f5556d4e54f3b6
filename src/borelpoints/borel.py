"""Borel-fixed machinery: stability tests, closures, and expansions.

Over an infinite field of characteristic p > 0, a monomial ideal is fixed
by the Borel group iff for every generator x^u, every pair i < j, and
every k whose base-p digits are dominated by those of u_j, the exchange
x_j^{-k} x_i^k x^u stays in the ideal (Pardue's criterion).  In
characteristic 0 only single-step exchanges (k = 1) are required, which is
the strongly stable condition.  Characteristic 0 is modeled here as the
exchange set {1}, so one code path covers both cases.  The rule is
written once, in _exchanges; _exchange_orbit follows it to a closure, for
borel_closure and the exhaustive oracle.  The Reeves walk's moves are
_expandable, which looks up a generator's adjacent p-power blockers
among the generators in every characteristic (the lemmas there), and
_expand, which keeps or drops each new multiple by the lemma there.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt
from operator import le

from .monomial_ideal import Monomial, MonomialIdeal

# Primes below this bound are checked by exact trial division, at most
# isqrt(2^31) = 46340 divisions.  Larger ones are refused: for exponents
# below p, digitwise_leq(k, l, p) is just k <= l, so every prime above
# the exponents of an ideal gives the same exchange rule.
_MAX_CHARACTERISTIC = 2**31


@dataclass(frozen=True)
class Characteristic:
    """0 or a prime below 2^31, selecting the exchange rule."""

    value: int

    def __post_init__(self):
        p = self.value
        if p == 0:
            return
        if p >= _MAX_CHARACTERISTIC:
            raise ValueError("characteristic must be 0 or a prime below 2^31")
        if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return str(self.value)


CHAR0 = Characteristic(0)


def digitwise_leq(k: int, l: int, ch: Characteristic) -> bool:
    """Exchange-exponent dominance for the given characteristic.

    For a prime p, compares base-p digits of k and l pairwise.  For
    characteristic 0 only k = 0 and (k = 1 when l >= 1) are allowed,
    recovering single-step strongly stable exchanges.
    """
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


def exchange_amounts(l: int, ch: Characteristic):
    """All k with 1 <= k <= l allowed as exchange exponents against l, in
    ascending order.  Characteristic p allows the k whose base-p digits are
    at most those of l: they are built digit by digit from the lowest, so
    the cost follows the output, not l."""
    if ch.is_zero:
        return [1] if l >= 1 else []
    p = ch.value
    amounts = [0]  # the allowed values of the digits below unit
    unit = 1
    while l:
        l, d = divmod(l, p)
        if d:
            amounts = [c + k for c in range(0, (d + 1) * unit, unit) for k in amounts]
        unit *= p
    return amounts[1:]


def exchange(m: Monomial, i: int, j: int, k: int) -> Monomial:
    """x_j^{-k} x_i^k m; requires m[j] >= k."""
    out = list(m)
    out[j] -= k
    out[i] += k
    return tuple(out)


def _exchanges(m: Monomial, ch: Characteristic):
    """Every x_j^{-k} x_i^k m with i < j and k a legal exchange amount
    against m[j] (Pardue's rule); repeats are possible."""
    for j in range(1, len(m)):
        for k in exchange_amounts(m[j], ch):
            for i in range(j):
                yield exchange(m, i, j, k)


def _exchange_orbit(gens, ch: Characteristic) -> set[Monomial]:
    """The monomials reachable from gens by legal exchanges, gens included.
    Exchanges keep the degree, so the orbit is finite, and it generates the
    smallest Borel-fixed ideal containing gens: a Borel-fixed ideal holds
    every exchange of each of its monomials."""
    orbit = set(gens)
    todo = list(orbit)
    while todo:
        for v in _exchanges(todo.pop(), ch):
            if v not in orbit:
                orbit.add(v)
                todo.append(v)
    return orbit


def is_borel_fixed(I: MonomialIdeal, ch: Characteristic) -> bool:
    """Pardue's criterion, checked on the minimal generators."""
    return all(I.contains(v) for g in I.gens for v in _exchanges(g, ch))


def is_strongly_stable(I: MonomialIdeal) -> bool:
    """Single-step exchange closure, checked on the minimal generators."""
    return is_borel_fixed(I, CHAR0)


def borel_closure(gens, ch: Characteristic, num_vars: int) -> MonomialIdeal:
    """Smallest ideal containing gens that passes is_borel_fixed for ch:
    the ideal generated by the exchange orbit of its minimal generators."""
    ideal = MonomialIdeal.from_generators(gens, num_vars)
    return MonomialIdeal.from_generators(_exchange_orbit(ideal.gens, ch), num_vars)


def expandable_generators(I: MonomialIdeal) -> list[Monomial]:
    """Generators at which I can be expanded, in canonical order.

    g qualifies when no generator of I equals x_i^{-1} x_{i+1} g for some
    x_i dividing g with i < n - 1.  I must be saturated and strongly
    stable; this public entry point checks that once and raises
    ValueError otherwise.  The Reeves walk calls the unchecked
    _expandable, since every ideal it visits has that property by
    construction (see the reeves module).
    """
    if not is_strongly_stable(I):
        raise ValueError(f"expansion needs a strongly stable ideal, got {I}")
    if I.saturate() != I:
        raise ValueError(f"expansion needs a saturated ideal, got {I}")
    return _expandable(I, (), CHAR0)


def _expandable(
    I: MonomialIdeal, last: Monomial, ch: Characteristic
) -> list[Monomial]:
    """The generators g > last in tuple order of the saturated Borel-fixed
    (for ch) ideal I at which the walk's expansion stays Borel-fixed, in
    canonical order; last = () admits them all, and the unit qualifies.

    A blocker of g is a v = x_i^{-k} x_j^k g with i < j < n, 1 <= k <= g_i
    and k digitwise below g_j + k, so that a legal exchange takes v to g.
    The reeves module proves that g qualifies exactly when no blocker of
    g lies in I.  By Lemma 2 that holds when no adjacent p-power blocker
    x_l^{-q} x_{l+1}^q g (q = p^e <= g_l, digit e of g_{l+1} below p - 1)
    lies in I, and by Lemma 1 when none is a generator.  Characteristic 0
    reads as a base above every exponent: q = 1, and nothing carries.

    Lemma 1.  If I is Borel-fixed for ch and g is a minimal generator, a
    blocker v of g that lies in I is a minimal generator.

    Proof.  Some generator f divides v; suppose f != v.  Then
    deg f < deg g, and f does not divide g, as g is minimal, so
    f_j = g_j + s with 1 <= s <= k, f_i <= g_i - k and f_l <= g_l for
    every other l.  Some t with s <= t <= k is digitwise below g_j + s.
    Adding g_j and k in base p carries nowhere, as k is digitwise below
    g_j + k.  If adding g_j and s carries nowhere either, take t = s.
    Otherwise let p^e be the highest place it carries into, and t the
    least multiple of p^e that is at least s.  As adding s carries into
    p^e and adding k does not, k mod p^e < s mod p^e, and with s <= k
    this gives t <= k.  The digits of t are those of g_j + s minus those
    of g_j at the places >= e, and 0 below.  So Pardue's rule puts
    f' = x_j^{-t} x_i^t f in I, and f' divides g with deg f' < deg g,
    against the minimality of g.  In characteristic 0, k = s = t = 1.

    Lemma 2.  If I is Borel-fixed for ch and a blocker
    v = x_i^{-k} x_j^k g lies in I, so does an adjacent p-power blocker
    x_l^{-q} x_{l+1}^q g with i <= l < j.

    Proof.  Let q = p^e be the lowest nonzero place of k.  Moving k - q,
    digitwise below k and so below g_j + k, from x_j back to x_i in v is
    legal and puts w = x_i^{-q} x_j^q g in I, a blocker, as q <= g_i and
    digit e of g_j is at most p - 2 (digit e of k is not 0).  Induct on
    j - i; j = i + 1 is the claim.  Otherwise let l = j - 1.  If digit e
    of g_l is below p - 1, moving q from x_j (its digit e in w is not 0)
    to x_l in w is legal and puts the blocker x_i^{-q} x_l^q g of the
    pair (i, l) in I.  Otherwise digit e of w_l = g_l is p - 1, and
    moving q from x_l to x_i in w is legal and puts x_l^{-q} x_j^q g, an
    adjacent p-power blocker, in I.  In characteristic 0, k = q = 1 and
    only the first case arises.
    """
    gens = I.gens
    gen_set = frozenset(gens)
    p = ch.value or 2 + (sum(gens[-1]) if gens else 0)  # gens[-1] has the top degree
    pairs = range(I.num_vars - 2)
    out = []
    for g in gens:
        if g <= last:
            continue
        for l in pairs:
            q = 1
            while q <= g[l]:
                if g[:l] + (g[l] - q, g[l + 1] + q) + g[l + 2 :] in gen_set and (
                    g[l + 1] // q % p < p - 1  # no carry: a blocker
                ):
                    break
                q *= p
            else:
                continue
            break  # g is blocked
        else:
            out.append(g)
    return out


def expand(I: MonomialIdeal, g: Monomial) -> MonomialIdeal:
    """Replace the generator g by g*x_j for max(g) <= j <= n-1.

    The result is again saturated strongly stable and its Hilbert
    polynomial is one more than that of I.  Raises ValueError unless I is
    saturated and strongly stable and g is one of its expandable
    generators other than the unit monomial.  These checks happen here
    only; the Reeves walk calls the unchecked _expand.
    """
    if g not in expandable_generators(I):
        raise ValueError(f"{g} is not an expandable generator of {I}")
    if not any(g):
        raise ValueError("cannot expand at the unit monomial")
    return _expand(I, g, CHAR0)


def _expand(I: MonomialIdeal, g: Monomial, ch: Characteristic) -> MonomialIdeal:
    """expand without the checks, in characteristic ch: I with the
    generator g replaced by every g x_k, k < n, that no other generator
    divides.  g must be a non-unit one of _expandable(I, (), ch), I being
    saturated and Borel-fixed for ch; then the result is too (see the
    reeves module), and it needs no other minimalization.  The generators
    other than g stay minimal, since none is a multiple of g, so none is
    a multiple of any g x_k, and the g x_k share one degree, so none
    divides another.  A generator dividing g x_k has degree at most
    a = deg g, and not a + 1, since then it would equal g x_k, a multiple
    of the generator g.  Which g x_k survive is decided by the lemma
    below, and only where it leaves the answer open is g x_k tested
    against the generators of degree at most a other than g.

    Lemma.  Let high = max(g), and top the largest index <= high with
    g_top mod p != 0, or 0 if there is none; characteristic 0 reads as
    base p = a + 2, above every exponent of g, so there top = high.
    (a) For k < top, some other generator divides g x_k.
    (b) For k > high, none does.
    (c) For k = high with g_high mod p != p - 1, none does.  This holds
        whenever top < high, as g_high is then a multiple of p.
    (d) Otherwise, for top <= k < high, or k = high with
        g_high mod p = p - 1, either may happen.
    In characteristic 0 only (a)-(c) arise, so the survivors are exactly
    the g x_k with k >= max(g).

    Proof.  Key step: for k < n, a generator f != g divides g x_k exactly
    when x_i^{-1} x_k g lies in I for some i != k with g_i > 0.  If f
    divides g x_k, then f does not divide g, as g is minimal, and
    f != g x_k, which is not minimal, so w = g x_k / f is a nonzero
    monomial free of x_k, and x_i^{-1} x_k g, a multiple of f, lies in I
    for every x_i dividing w; such an i has i != k and g_i > 0.
    Conversely a generator dividing x_i^{-1} x_k g divides g x_k, and it
    is not g, which has one more x_i.  (a) x_top^{-1} x_k g is a legal
    exchange of g, as 1 is digitwise below g_top, so it lies in I.
    (b) Every i with g_i > 0 has i < k, and x_i^{-1} x_k g is a blocker of
    g (see _expandable), as 1 is digitwise below g_k + 1 = 1; no blocker
    of an expandable g lies in I.  (c) As in (b): 1 is digitwise below
    g_high + 1 exactly when g_high mod p != p - 1.

    Canonical order sorts by degree and, within one degree, by descending
    exponent tuple.  The survivors all have degree a + 1, so they belong
    in the block of that degree, which starts after g and the generators
    of g's own degree that follow it.  They come out in descending tuple
    order, as g x_k > g x_l for k < l; merging them into that block, and
    leaving every other generator where it is, gives the canonical order.
    The tests compare this with from_generators and with the references
    in the tests' conftest.
    """
    gens = I.gens
    a = sum(g)
    i = gens.index(g)
    lo = bisect_right(gens, a, i + 1, key=sum)  # start of degree a + 1
    hi = bisect_right(gens, a + 1, lo, key=sum)  # end of degree a + 1
    lower = gens[:i] + gens[i + 1 : lo]
    n = I.num_vars - 1
    high = n - 1  # g is free of x_n, as I is saturated, and not the unit
    while not g[high]:
        high -= 1
    top = kept = high  # g x_k is dropped for k < top and kept for k >= kept
    p = ch.value  # in characteristic 0, base a + 2, 0 < g_high < p - 1: no (d)
    if p and not 0 < g[high] % p < p - 1:
        kept += g[high] % p == p - 1
        while top and g[top] % p == 0:
            top -= 1
    block = [g[:k] + (g[k] + 1,) + g[k + 1 :] for k in range(kept, n)]
    if top < kept:  # case (d): scan
        scan = (g[:k] + (g[k] + 1,) + g[k + 1 :] for k in range(top, kept))
        block[:0] = [m for m in scan if not any(all(map(le, h, m)) for h in lower)]
    if lo < hi:
        block += gens[lo:hi]
        block.sort(reverse=True)
    return MonomialIdeal._trusted(I.num_vars, lower + tuple(block) + gens[hi:])
