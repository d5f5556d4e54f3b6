"""Exact calculus of admissible Hilbert polynomials.

A nonzero admissible Hilbert polynomial p has a unique expression

    p(t) = sum_{j=1}^{r} C(t + b_j - j + 1, b_j),   b_1 >= ... >= b_r >= 0,

and a conjugate expression

    p(t) = sum_{i=0}^{d} C(t + i, i + 1) - C(t + i - e_i, i + 1),

with e_0 >= e_1 >= ... >= e_d > 0, where d = b_1 is the degree and
r = e_0 is the Gotzmann number.  Everything here manipulates the integer
partitions (b_1, ..., b_r) and (e_0, ..., e_d) directly, so all arithmetic
is exact; no rational coefficients ever appear.
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


def peel_to_partition(
    samples: SampledPolynomial, max_parts: int | None = None
) -> GotzmannPartition:
    """Recover the partition of an admissible polynomial from its values.

    Greedy peel: the degree of the running remainder gives the next part,
    and the corresponding term is subtracted pointwise.  The remainder of
    an admissible polynomial hits zero after exactly r steps.  Inadmissible
    samples are detected by a non-monotone part, a negative remainder at
    the window top, or the iteration cap (default: the value at the window
    top plus degree + 2, which bounds r for any admissible input).
    """
    values = list(samples.values)
    width = len(values)
    d0 = _window_degree(list(values))
    if d0 < 0:
        raise NotAdmissibleError("zero polynomial has no partition")
    cap = max_parts if max_parts is not None else values[-1] + d0 + 2
    parts: list[int] = []
    q = values
    while any(q):
        if len(parts) >= cap:
            raise NotAdmissibleError("peel exceeded the iteration cap")
        d = _window_degree(list(q))
        if parts and d > parts[-1]:
            raise NotAdmissibleError("peeled parts are not weakly decreasing")
        j = len(parts) + 1
        for idx in range(width):
            t = samples.base + idx
            q[idx] -= binomial_poly(t, d - j + 1, d)
        if q[-1] < 0:
            raise NotAdmissibleError("peel went negative at the window top")
        parts.append(d)
    return GotzmannPartition(tuple(parts))


def partition_from_values(values) -> GotzmannPartition:
    """Partition of the polynomial p whose values p(0), p(1), ... are given.

    The values must be exact polynomial values, at least two more of them
    than the degree of p; unlike peel_to_partition this needs no window
    past any regularity.  The Macaulay parts are peeled from the top: if
    p has degree d, its d-th finite difference is the constant e_d, and
    subtracting C(t + d, d + 1) - C(t + d - e_d, d + 1) leaves a
    polynomial of lower degree whose top difference is e_{d-1}, and so on
    down to e_0.  Raises NotAdmissibleError for the zero polynomial, or
    when the parts are not those of an admissible polynomial.  The first
    part above MAX_GOTZMANN_NUMBER raises SearchBoundError, since e_0 >= it.
    """
    rem = list(values)
    d = _window_degree(rem)
    if d < 0:
        raise NotAdmissibleError("zero polynomial has no partition")
    e = [0] * (d + 1)
    for i in range(d, -1, -1):
        row = rem
        for _ in range(i):
            row = [row[k + 1] - row[k] for k in range(len(row) - 1)]
        e[i] = row[0]
        _check_gotzmann_number(e[i])
        for t in range(len(rem)):
            rem[t] -= binomial_poly(t, i, i + 1) - binomial_poly(t, i - e[i], i + 1)
    return MacaulayPartition(tuple(e)).to_gotzmann()
