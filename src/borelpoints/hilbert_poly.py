"""Exact calculus of admissible Hilbert polynomials.

A nonzero admissible Hilbert polynomial p has a unique expression

    p(t) = sum_{j=1}^{r} C(t + b_j - j + 1, b_j),   b_1 >= ... >= b_r >= 0,

and a conjugate expression

    p(t) = sum_{i=0}^{d} C(t + i, i + 1) - C(t + i - e_i, i + 1),

with e_0 >= e_1 >= ... >= e_d > 0, where d = b_1 is the degree and
r = e_0 is the Gotzmann number.  Everything here manipulates the integer
partitions (b_1, ..., b_r) and (e_0, ..., e_d) directly, so all arithmetic
is exact; no rational coefficients ever appear.

Between partitions and ideals p travels as its coordinates tau,
p(t) = sum_{m <= d} tau_m C(t + m, m): GotzmannPartition.coordinates
computes them, and peel_to_partition, the one way back, peels the
Macaulay parts off them, refusing one above MAX_GOTZMANN_NUMBER first.
"""

from __future__ import annotations

from math import comb

from .errors import NotAdmissibleError, SearchBoundError, Value, set_slot

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


class GotzmannPartition(Value):
    """Weakly decreasing tuple b_1 >= ... >= b_r >= 0 encoding a polynomial."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(x) for x in parts)
        if not parts:
            raise NotAdmissibleError("partition must have at least one part")
        if any(x < 0 for x in parts):
            raise NotAdmissibleError("parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise NotAdmissibleError("parts must be weakly decreasing")
        set_slot(self, "parts", parts)

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

    def coordinates(self) -> tuple[int, ...]:
        """The tau_m with p(t) = sum_{m <= d} tau_m C(t + m, m), for the
        polynomial p of degree d; peel_to_partition inverts this.

        With the backward difference D, D^k C(t + m, m) = C(t + m - k, m - k),
        which at t = -1 is 1 for m = k and 0 for m > k, so tau_k = (D^k p)(-1).
        The partition b_0 >= ... >= b_{r-1} gives p(t) = sum_j C(t + b_j - j, b_j),
        and D^k takes C(t + b - j, b) to C(t + b - j - k, b - k), 0 for k > b,
        which at t = -1 is C(b - k - j - 1, b - k) = (-1)^(b-k) C(j, b - k), a
        binomial with a negative top unless it is 0.  So
        tau_k = sum_{j : b_j >= k} (-1)^(b_j - k) C(j, b_j - k).

        The parts equal to b fill one run of indices lo <= j < hi, and by
        the hockey-stick identity sum_{lo <= j < hi} C(j, m) =
        C(hi, m + 1) - C(lo, m + 1), so the run adds
        (-1)^m (C(hi, m + 1) - C(lo, m + 1)) to tau_{b-m}, 0 <= m <= b:
        two binomials per run and m, not one per part.
        """
        parts = self.parts
        tau = [0] * (parts[0] + 1)
        lo = 0
        while lo < len(parts):
            b = parts[lo]
            hi = lo + parts.count(b)  # the parts weakly decrease
            sign = 1
            for m in range(b + 1):
                tau[b - m] += sign * (comb(hi, m + 1) - comb(lo, m + 1))
                sign = -sign
            lo = hi
        return tuple(tau)

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


class MacaulayPartition(Value):
    """Strictly positive weakly decreasing tuple (e_0, ..., e_d)."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(x) for x in parts)
        if not parts:
            raise NotAdmissibleError("partition must have at least one part")
        if any(x <= 0 for x in parts):
            raise NotAdmissibleError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise NotAdmissibleError("parts must be weakly decreasing")
        set_slot(self, "parts", parts)

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


def peel_to_partition(tau) -> GotzmannPartition:
    """The partition of p(t) = sum_m tau_m C(t + m, m), tau perhaps with
    trailing zeros.  The Macaulay parts are peeled from the top: e_d =
    tau_d for p of degree d, and subtracting the term
    C(t + d, d + 1) - C(t + d - e_d, d + 1) leaves top coordinate e_{d-1}.
    By Pascal's rule C(t + i, i + 1) - C(t + i - e, i + 1) is the sum of
    the C(t + i - k, i), k = 1..e, each the sum over j <= i of
    (-1)^j C(k, j) C(t + i - j, i - j), so the term holds e in coordinate
    i and (-1)^j C(e + 1, j + 1) in coordinate i - j, j >= 1.  Raises
    NotAdmissibleError for the zero polynomial and at the first part
    that is not positive or breaks the weak decrease, and SearchBoundError
    at the first part above MAX_GOTZMANN_NUMBER (e_0 is at least that
    part), each before anything is built from the part.
    """
    rem = list(tau)
    d = max((m for m, x in enumerate(rem) if x), default=-1)
    if d < 0:
        raise NotAdmissibleError("zero polynomial has no partition")
    e = [0] * (d + 1)
    for i in range(d, -1, -1):
        e[i] = rem[i]
        _check_gotzmann_number(e[i])
        if e[i] <= 0 or (i < d and e[i] < e[i + 1]):
            raise NotAdmissibleError("Macaulay parts must be positive and weakly decreasing")
        for j in range(1, i + 1):
            rem[i - j] -= (-1) ** j * comb(e[i] + 1, j + 1)
    return MacaulayPartition(tuple(e)).to_gotzmann()
