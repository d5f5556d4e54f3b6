"""Brute-force enumeration of saturated Borel-fixed ideals.

Ground truth, independent of the expansion walk in reeves: every
Borel-fixed ideal is the sum of the closures of its minimal generators,
and a saturated ideal with Hilbert polynomial p is generated in degrees up
to the Gotzmann number r.  Saturation pins the candidates down further: a
minimal generator of a saturated ideal is never divisible by the last
variable, and exchanges only move exponents to lower indices, so the
closure of a last-variable-free monomial is generated by such monomials.

The search therefore proceeds degree by degree from 1 to r, branching
over sets of generator orbits (closures of single last-variable-free
monomials) to add at each degree.  States are deduplicated by the
canonical ideal form, and a branch dies as soon as its Hilbert function
falls below the target value at any degree >= r, since adding generators
only removes standard monomials.  Survivors are filtered at the end for
the exact Hilbert polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import SearchBoundError
from .hilbert_poly import GotzmannPartition
from .monomial_ideal import Monomial, MonomialIdeal, monomials_of_degree
from .borel import Characteristic, borel_closure

DEFAULT_MAX_AMBIENT = 3
DEFAULT_MAX_GOTZMANN = 5


@lru_cache(maxsize=None)
def _orbit(m: Monomial, ch: Characteristic, num_vars: int) -> MonomialIdeal:
    return borel_closure((m,), ch, num_vars)


@dataclass(frozen=True)
class SearchNode:
    """Partial ideal once all generators of degree <= degree are fixed."""

    degree: int
    ideal: MonomialIdeal
    hf_prefix: tuple[int, ...]


def _orbit_candidates(
    ideal: MonomialIdeal, deg: int, ch: Characteristic
) -> list[MonomialIdeal]:
    """Distinct closures of degree-deg monomials outside the ideal.

    Only last-variable-free monomials can minimally generate a saturated
    ideal, so the last exponent is pinned to zero.
    """
    seen = {}
    for body in monomials_of_degree(deg, ideal.num_vars - 1):
        m = body + (0,)
        if ideal.contains(m):
            continue
        orbit = _orbit(m, ch, ideal.num_vars)
        seen.setdefault(orbit.gens, orbit)
    return [seen[k] for k in sorted(seen)]


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
    """Yield the list of SearchNodes alive after each degree 1, ..., r."""
    _check_feasible(partition, n, force)
    r = partition.gotzmann_number
    num_vars = n + 1
    checkpoints = [r + i for i in range(partition.degree + 2)]
    targets = {d: partition.evaluate(d) for d in checkpoints}
    p_r = targets[r]

    def viable(ideal: MonomialIdeal) -> bool:
        return all(ideal.hilbert_function(d) >= targets[d] for d in checkpoints)

    states = {MonomialIdeal.zero(num_vars)}
    for deg in range(1, r + 1):
        next_states: set[MonomialIdeal] = set()
        for ideal in states:
            orbits = _orbit_candidates(ideal, deg, ch)

            def grow(i: int, cur: MonomialIdeal):
                if i == len(orbits):
                    # values at degrees <= deg are final after this level, and
                    # the Hilbert function of a last-variable-free ideal is
                    # nondecreasing, so overshooting p(r) now is fatal
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
        yield [
            SearchNode(
                deg,
                ideal,
                tuple(ideal.hilbert_function(d) for d in range(deg + 1)),
            )
            for ideal in sorted(states, key=lambda i: i.gens)
        ]


def enumerate_borel_fixed(
    partition: GotzmannPartition,
    n: int,
    ch: Characteristic,
    force: bool = False,
) -> frozenset[MonomialIdeal]:
    """All saturated ideals in K[x_0, ..., x_n] passing Pardue's criterion
    for ch and having the given Hilbert polynomial.

    Guarded to n <= 3 and Gotzmann number <= 5 unless force is set.
    """
    final: list[SearchNode] = []
    for final in search_levels(partition, n, ch, force):
        pass
    found = set()
    for node in final:
        ideal = node.ideal
        if ideal.is_zero:
            continue
        if ideal.saturate() != ideal:
            raise RuntimeError(f"exhaustive search produced unsaturated ideal {ideal}")
        if ideal.hilbert_polynomial().polynomial == partition:
            found.add(ideal)
    return frozenset(found)
