"""Brute-force enumeration of saturated Borel-fixed ideals.

Ground truth, independent of the expansion walk in reeves: every
Borel-fixed ideal is the sum of the closures of its minimal generators,
and a saturated ideal with Hilbert polynomial p is generated in degrees up
to the Gotzmann number r.  Saturation pins the candidates down further: a
minimal generator of a saturated ideal is never divisible by the last
variable, and exchanges only move exponents to lower indices, so the
closure of a last-variable-free monomial is generated by such monomials.
The only Borel machinery used is Pardue's exchange rule, through
borel._exchange_orbit.

The search therefore proceeds degree by degree from 1 to r, adding
generator orbits (closures of single last-variable-free monomials) of
each degree.  A state is viable while its Hilbert function stays at or
above the target value at every checkpoint r, ..., D with
D = r + deg(p) + 1.  Adding generators only removes standard monomials,
so viability is antimonotone: a join of several orbits is viable exactly
when every partial join is, in any order.  One fold per degree therefore
reaches every viable join of a held state with any set of the degree's
orbits: each orbit in turn is joined to every state held so far, and a
join is kept when it changes the state and is viable.  (An orbit already
inside a state joins to itself.)  After each degree, a state whose
Hilbert function has passed p(r) is cut.

No survivor's polynomial needs a test, in any characteristic.
Viability and the cut give HF(r) = p(r).  As r is the Gotzmann number,
p(r)^<r> = p(r + 1), so Macaulay's bound HF(r + 1) <= HF(r)^<r> and the
checkpoint r + 1 give HF(r + 1) = p(r + 1), and Gotzmann's persistence
theorem, for an ideal generated in degrees <= r, HF(t) = p(t) for all
t >= r; both theorems hold over any field.  The zero state, whose
polynomial has degree n > deg p, never survives.

A search state is one int, a Borel set in the sense of
Cioffi-Lella-Marinari-Roggero: bit i stands for the i-th monomial of
degree 0..D in x_0, ..., x_{n-1}, in canonical order, and is set when
that monomial lies in the ideal.  Every state is generated by monomials
free of the last variable, so with S' = K[x_0, ..., x_{n-1}] and I' the
ideal of S' with the same generators, S/I = (S'/I')[x_n] and

    HF(d) = sum_{e <= d} (#S'_e - #(I' in degree e)),

the number of clear bits of degree <= d: one popcount per checkpoint.
The ideal generated by an orbit is the union of the multiples of its
generators, a precomputed mask, so adding an orbit is a bitwise OR and
comparing states is comparing ints.  Generators have degree <= r <= D,
so the mask determines the ideal and states deduplicate by their masks.
A MonomialIdeal is built only for the states alive after each degree:
its minimal generators are the set bits whose one-step divisors are all
clear, in canonical order, so it is built unchecked.  search_levels
yields these ideals as one set per degree and keeps no other record of
a level.
"""

from __future__ import annotations

from .errors import SearchBoundError
from .hilbert_poly import GotzmannPartition
from .monomial_ideal import Monomial, MonomialIdeal, monomials_of_degree
from .borel import Characteristic, _exchange_orbit

DEFAULT_MAX_AMBIENT = 3
DEFAULT_MAX_GOTZMANN = 5


class _Layout:
    """Bit positions of the last-variable-free monomials of degree <= top.

    monomials[i] is the monomial of bit i, in canonical order, so that
    degree d occupies bits start[d] to start[d + 1] - 1.  below[d] has the
    bits of degree <= d set, parents[i] the bits of the one-step divisors
    of monomial i, and multiples[i] the bits of all its multiples.
    """

    def __init__(self, num_vars: int, top: int):
        free = num_vars - 1
        self.monomials = []
        self.start = []
        for d in range(top + 1):
            self.start.append(len(self.monomials))
            self.monomials.extend(m + (0,) for m in monomials_of_degree(d, free))
        self.start.append(len(self.monomials))
        self.below = [(1 << s) - 1 for s in self.start[1:]]
        self.index = {m: i for i, m in enumerate(self.monomials)}

        def step(m: Monomial, k: int, by: int) -> int:
            return self.index[m[:k] + (m[k] + by,) + m[k + 1 :]]

        self.parents = [
            sum(1 << step(m, k, -1) for k in range(free) if m[k])
            for m in self.monomials
        ]
        self.multiples = [0] * len(self.monomials)
        # higher degrees first, so every one-step multiple is already done
        for i in range(len(self.monomials) - 1, -1, -1):
            m = self.monomials[i]
            mask = 1 << i
            if i < self.start[top]:
                for k in range(free):
                    mask |= self.multiples[step(m, k, 1)]
            self.multiples[i] = mask

    def ideal(self, mask: int, deg: int, num_vars: int) -> MonomialIdeal:
        """The ideal of a state whose generators have degree <= deg."""
        gens = tuple(
            self.monomials[i]
            for i in range(self.start[deg + 1])
            if mask >> i & 1 and not mask & self.parents[i]
        )
        return MonomialIdeal._trusted(num_vars, gens)


def _check_feasible(partition: GotzmannPartition, n: int, force: bool):
    if n <= partition.degree:
        raise ValueError("ambient dimension must exceed the polynomial degree")
    r = partition.gotzmann_number
    if not force and (n > DEFAULT_MAX_AMBIENT or r > DEFAULT_MAX_GOTZMANN):
        raise SearchBoundError(
            f"search bound exceeded (n={n}, r={r}); pass force=True to override"
        )


def search_levels(
    partition: GotzmannPartition,
    n: int,
    ch: Characteristic,
    force: bool = False,
):
    """Yield the set of ideals alive after each degree 1, ..., r: those
    whose generators of degree <= deg are fixed and can still reach the
    target.

    Each degree is one fold over its distinct orbit masks (see the module
    docstring), then one p(r) filter; the fold holds every viable state of
    the degree until that filter."""
    _check_feasible(partition, n, force)
    r = partition.gotzmann_number
    num_vars = n + 1
    top = r + partition.degree + 1
    layout = _Layout(num_vars, top)
    checks = [(layout.below[d], partition.evaluate(d)) for d in range(r, top + 1)]
    p_r = checks[0][1]

    def viable(mask: int) -> bool:
        return all((below & ~mask).bit_count() >= target for below, target in checks)

    states = {0}
    for deg in range(1, r + 1):
        orbits = set()
        for i in range(layout.start[deg], layout.start[deg + 1]):
            mask = 0
            for v in _exchange_orbit((layout.monomials[i],), ch):
                mask |= layout.multiples[layout.index[v]]
            orbits.add(mask)
        for orbit in orbits:
            states |= {
                joined
                for state in states
                if (joined := state | orbit) != state and viable(joined)
            }
        # values at degrees <= deg are final after this level, and the
        # Hilbert function of a last-variable-free ideal is nondecreasing,
        # so overshooting p(r) now is fatal
        below_deg = layout.below[deg]
        states = {s for s in states if (below_deg & ~s).bit_count() <= p_r}
        yield {layout.ideal(state, deg, num_vars) for state in states}


def enumerate_borel_fixed(
    partition: GotzmannPartition,
    n: int,
    ch: Characteristic,
    force: bool = False,
) -> frozenset[MonomialIdeal]:
    """All saturated ideals in K[x_0, ..., x_n] passing Pardue's criterion
    for ch and having the given Hilbert polynomial: the last level of
    search_levels (see the module docstring).

    Guarded to n <= 3 and Gotzmann number <= 5 unless force is set.
    """
    for level in search_levels(partition, n, ch, force):
        pass
    for ideal in level:
        if ideal.saturate() != ideal:
            raise RuntimeError(f"exhaustive search produced unsaturated ideal {ideal}")
    return frozenset(level)
