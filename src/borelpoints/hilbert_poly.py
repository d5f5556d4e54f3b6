"""Exact calculus of admissible Hilbert polynomials.

A nonzero admissible Hilbert polynomial p has a unique expression

    p(t) = sum_{j=1}^{r} C(t + b_j - j + 1, b_j),   b_1 >= ... >= b_r >= 0,

and a conjugate expression

    p(t) = sum_{i=0}^{d} C(t + i, i + 1) - C(t + i - e_i, i + 1),

with e_0 >= e_1 >= ... >= e_d > 0, where d = b_1 is the degree and
r = e_0 is the Gotzmann number.  Everything here manipulates the integer
partitions (b_1, ..., b_r) and (e_0, ..., e_d) directly, so all arithmetic
is exact; no rational coefficients ever appear.

peel_to_partition is the one way from values to a partition: it peels
the Macaulay parts e_d, ..., e_0 off the values of p on any window of
d + 2 or more consecutive integers, and refuses a part above
MAX_GOTZMANN_NUMBER before it builds anything from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import NotAdmissibleError, SearchBoundError

# The largest Gotzmann number a partition is built for.  A Gotzmann
# partition has that many parts, and an ideal in ten variables with two
# quadric generators already has a Gotzmann number beyond any memory.
# The random ideals of the tests (at most four variables, exponents at
# most 4) reach a few thousand, far below the bound.
MAX_GOTZMANN_NUMBER = 10**5


def _check_gotzmann_number(r: int) -> None:
    if r > MAX_GOTZMANN_NUMBER:
        raise SearchBoundError(
            f"size bound exceeded: Gotzmann number above {MAX_GOTZMANN_NUMBER}"
        )


def binomial(j: int, k: int) -> int:
    """C(j, k) with the counting convention: 0 unless j >= k >= 0."""
    if j < 0 or k < 0 or j < k:
        return 0
    return comb(j, k)


def binomial_poly(t: int, a: int, b: int) -> int:
    """Value at integer t of the polynomial C(t + a, b).

    For b >= 0 this is x(x-1)...(x-b+1)/b! with x = t + a, which may be
    negative for small t; for b < 0 it is the zero polynomial.  For
    x >= 0 it is the count C(x, b), zero when x < b; for x < 0 the b
    factors are the negatives of -x, ..., b - x - 1, so it is
    (-1)^b C(b - x - 1, b).
    """
    if b < 0:
        return 0
    x = t + a
    if x >= 0:
        return comb(x, b)
    return -comb(b - x - 1, b) if b % 2 else comb(b - x - 1, b)


@dataclass(frozen=True)
class GotzmannPartition:
    """Weakly decreasing tuple b_1 >= ... >= b_r >= 0 encoding a polynomial."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(x) for x in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise NotAdmissibleError("partition must have at least one part")
        if any(x < 0 for x in parts):
            raise NotAdmissibleError("parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise NotAdmissibleError("parts must be weakly decreasing")

    @property
    def degree(self) -> int:
        return self.parts[0]

    @property
    def gotzmann_number(self) -> int:
        return len(self.parts)

    def evaluate(self, t: int) -> int:
        """p(t), evaluated exactly."""
        return sum(
            binomial_poly(t, b - j, b) for j, b in enumerate(self.parts)
        )

    def to_macaulay(self) -> "MacaulayPartition":
        """Conjugate-side representation (e_0, ..., e_d) with e_0 = r."""
        d = self.degree
        conj = tuple(
            sum(1 for b in self.parts if b >= i) for i in range(1, d + 1)
        )
        return MacaulayPartition((self.gotzmann_number,) + conj)

    def increment(self) -> "GotzmannPartition":
        """Partition of p + 1: append a zero part."""
        return GotzmannPartition(self.parts + (0,))

    def lift(self) -> "GotzmannPartition":
        """Partition of the lifted polynomial: every part + 1."""
        return GotzmannPartition(tuple(b + 1 for b in self.parts))

    def difference(self) -> "GotzmannPartition":
        """Partition of the backward difference p(t) - p(t-1).

        Positive parts drop by one and zero parts disappear; a constant
        polynomial is rejected since its difference is the zero polynomial.
        """
        if self.degree == 0:
            raise NotAdmissibleError(
                "difference of a constant is the zero polynomial"
            )
        return GotzmannPartition(tuple(b - 1 for b in self.parts if b > 0))

    def __str__(self) -> str:
        return "(" + ", ".join(str(b) for b in self.parts) + ")"


@dataclass(frozen=True)
class MacaulayPartition:
    """Strictly positive weakly decreasing tuple (e_0, ..., e_d)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(x) for x in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise NotAdmissibleError("partition must have at least one part")
        if any(x <= 0 for x in parts):
            raise NotAdmissibleError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise NotAdmissibleError("parts must be weakly decreasing")

    @property
    def degree(self) -> int:
        return len(self.parts) - 1

    def evaluate(self, t: int) -> int:
        """p(t) via the conjugate expression; cross-checks GotzmannPartition."""
        return sum(
            binomial_poly(t, i, i + 1) - binomial_poly(t, i - e, i + 1)
            for i, e in enumerate(self.parts)
        )

    def to_gotzmann(self) -> GotzmannPartition:
        """Inverse conversion: e_i - e_{i+1} parts equal to i, for each i.

        The result has e_0 parts, so above MAX_GOTZMANN_NUMBER this raises
        SearchBoundError before it builds anything.
        """
        _check_gotzmann_number(self.parts[0])
        e = self.parts + (0,)
        parts = []
        for i in range(self.degree, -1, -1):
            parts.extend([i] * (e[i] - e[i + 1]))
        return GotzmannPartition(tuple(parts))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.parts) + ")"


@dataclass(frozen=True)
class SampledPolynomial:
    """Integer polynomial values p(base), p(base+1), ..., on a finite window.

    The window must be wide enough that the finite-difference order is at
    most width - 2; the slack row certifies the samples really do come from
    a polynomial of that degree.
    """

    base: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if not self.values:
            raise NotAdmissibleError("empty sample window")

    def degree(self) -> int:
        """Degree determined by finite differences; -1 for the zero samples."""
        return _window_degree(list(self.values))


def _window_degree(row: list[int]) -> int:
    k = 0
    while any(row):
        if len(row) == 1:
            raise NotAdmissibleError(
                "window too short to determine a polynomial"
            )
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        k += 1
    return k - 1


def peel_to_partition(samples: SampledPolynomial) -> GotzmannPartition:
    """The partition of the admissible polynomial p sampled in the window.

    The Macaulay parts are peeled from the top, as a polynomial identity,
    so any window works that has at least two more values than the
    degree of p: none needs to lie past any regularity.  If p has degree
    d, its d-th finite difference is the constant e_d, and subtracting
    C(t + d, d + 1) - C(t + d - e_d, d + 1) at every t of the window
    leaves a polynomial of lower degree whose top difference is e_{d-1},
    and so on down to e_0.  Raises NotAdmissibleError for the zero
    polynomial, for a window too short to fix the degree, and when the
    parts are not those of an admissible polynomial.  The first part
    above MAX_GOTZMANN_NUMBER raises SearchBoundError before anything is
    built from it, since e_0 is at least that part.
    """
    rem = list(samples.values)
    d = _window_degree(rem)
    if d < 0:
        raise NotAdmissibleError("zero polynomial has no partition")
    ts = range(samples.base, samples.base + len(rem))
    e = [0] * (d + 1)
    for i in range(d, -1, -1):
        row = rem
        for _ in range(i):
            row = [row[k + 1] - row[k] for k in range(len(row) - 1)]
        e[i] = row[0]
        _check_gotzmann_number(e[i])
        for k, t in enumerate(ts):
            rem[k] -= binomial_poly(t, i, i + 1) - binomial_poly(t, i - e[i], i + 1)
    return MacaulayPartition(tuple(e)).to_gotzmann()
