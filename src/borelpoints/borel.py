"""Borel-fixed machinery: stability tests, closures, and expansions.

Over an infinite field of characteristic p > 0, a monomial ideal is fixed
by the Borel group iff for every generator x^u, every pair i < j, and
every k whose base-p digits are dominated by those of u_j, the exchange
x_j^{-k} x_i^k x^u stays in the ideal (Pardue's criterion).  In
characteristic 0 only single-step exchanges (k = 1) are required, which is
the strongly stable condition.  Characteristic 0 is modeled here as the
exchange set {1}, so one code path covers both cases.  The rule is
written once, in _exchanges; _exchange_orbit follows it to a closure, for
borel_closure and the exhaustive oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

from .monomial_ideal import Monomial, MonomialIdeal, max_index

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
    """All k with 1 <= k <= l allowed as exchange exponents against l."""
    return [k for k in range(1, l + 1) if digitwise_leq(k, l, ch)]


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
    return _expandable(I)


def _expandable(I: MonomialIdeal) -> list[Monomial]:
    """expandable_generators without the precondition check."""
    gen_set = frozenset(I.gens)
    out = []
    for g in I.gens:
        for i in range(I.num_vars - 2):
            # g is blocked by x_i^{-1} x_{i+1} g
            if g[i] and g[:i] + (g[i] - 1, g[i + 1] + 1) + g[i + 2 :] in gen_set:
                break
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
    return _expand(I, g)


def _expand(I: MonomialIdeal, g: Monomial) -> MonomialIdeal:
    """expand without the checks: g must be a non-unit expandable generator
    of the saturated strongly stable ideal I.

    The result needs no minimalization.  The generators other than g stay
    minimal, since none of them is a multiple of g, and the new multiples
    g*x_j share one degree, so none divides another.  Nor can another
    generator h divide some g*x_j: h would have one more x_j than g and
    no more of any other variable, so shifting that x_j down to some x_i
    with i < j and h_i < g_i (strong stability) would put a divisor of g
    in I.  As g is minimal, that divisor is g, so h = x_i^{-1} x_j g.
    Shifting its x_j down to x_{i+1} puts x_i^{-1} x_{i+1} g in I, and by
    the same argument as a minimal generator, which would block g.  So
    the multiples are simply merged into the generators.

    Canonical order sorts by degree and, within one degree, by descending
    exponent tuple.  The multiples all have degree deg g + 1, so they
    belong in the block of that degree, which starts after g and the
    generators of g's own degree that follow it; merging them into that
    block in descending tuple order, and leaving every other generator
    where it is, gives the canonical order.  The tests compare this with
    from_generators.
    """
    gens = I.gens
    a = sum(g)
    i = gens.index(g)
    lo = bisect_right(gens, a, i + 1, key=sum)  # start of degree a + 1
    hi = bisect_right(gens, a + 1, lo, key=sum)  # end of degree a + 1
    block = [
        g[:j] + (g[j] + 1,) + g[j + 1 :] for j in range(max_index(g), I.num_vars - 1)
    ]
    block += gens[lo:hi]
    block.sort(reverse=True)
    return MonomialIdeal._trusted(
        I.num_vars, gens[:i] + gens[i + 1 : lo] + tuple(block) + gens[hi:]
    )
