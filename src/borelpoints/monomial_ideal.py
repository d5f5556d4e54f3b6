"""Monomials as exponent tuples and monomial ideals with canonical generators.

A monomial in K[x_0, ..., x_n] is a tuple of n+1 nonnegative exponents.
A MonomialIdeal stores its minimal generating set sorted by (degree, then
lexicographic order with x_0 largest), so structural equality is ideal
equality and sets of ideals deduplicate for free.

Hilbert functions of quotients S/I are computed from the numerator of the
Hilbert series, obtained by the standard pivot recursion
N(I) = N(I + <x_k>) + t * N(I : x_k).  Two independent reference
implementations (direct monomial enumeration, and inclusion-exclusion over
generator lcms) live in the tests, which check that all three agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .hilbert_poly import (
    GotzmannPartition,
    binomial,
    binomial_poly,
    partition_from_values,
)

Monomial = tuple[int, ...]


def max_index(m: Monomial) -> int:
    """Largest variable index dividing m; undefined for the unit monomial."""
    for i in range(len(m) - 1, -1, -1):
        if m[i] > 0:
            return i
    raise ValueError("the unit monomial has no maximal index")


def divides(m: Monomial, other: Monomial) -> bool:
    return all(a <= b for a, b in zip(m, other))


def format_monomial(m: Monomial) -> str:
    if not any(m):
        return "1"
    pieces = []
    for i, e in enumerate(m):
        if e == 1:
            pieces.append(f"x{i}")
        elif e > 1:
            pieces.append(f"x{i}^{e}")
    return "*".join(pieces)


def parse_monomial(text: str, num_vars: int) -> Monomial:
    """Parse 'x0^2*x1' style input; '1' is the unit monomial."""
    text = text.strip()
    exps = [0] * num_vars
    if text in ("1", ""):
        return tuple(exps)
    for piece in text.split("*"):
        piece = piece.strip()
        if "^" in piece:
            var, _, power = piece.partition("^")
            e = int(power)
        else:
            var, e = piece, 1
        if not var.startswith("x"):
            raise ValueError(f"cannot parse monomial factor {piece!r}")
        i = int(var[1:])
        if not 0 <= i < num_vars:
            raise ValueError(f"variable x{i} outside ring with {num_vars} variables")
        if e < 0:
            raise ValueError("negative exponent")
        exps[i] += e
    return tuple(exps)


def canonical_key(m: Monomial):
    """Sort key: degree first, then lexicographically largest first."""
    return (sum(m), tuple(-e for e in m))


def _minimal_gens(gens) -> tuple[Monomial, ...]:
    unique = sorted(set(gens), key=canonical_key)
    kept: list[Monomial] = []
    for m in unique:
        if not any(divides(g, m) for g in kept):
            kept.append(m)
    return tuple(kept)


def monomials_of_degree(d: int, num_vars: int):
    """Yield all exponent tuples of total degree d, lexicographically."""
    if num_vars == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(d - e, num_vars - 1):
            yield (e,) + rest


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its canonical minimal generating set.

    The zero ideal has no generators; the unit ideal is generated by the
    unit monomial.  Use from_generators to build from an arbitrary set.
    """

    num_vars: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        for g in self.gens:
            if len(g) != self.num_vars:
                raise ValueError("generator length does not match num_vars")
            if any(e < 0 for e in g):
                raise ValueError("negative exponent in generator")

    @classmethod
    def _trusted(cls, num_vars: int, gens: tuple[Monomial, ...]) -> "MonomialIdeal":
        """Build from generators already known to be valid, minimal and in
        canonical order, skipping the checks of __post_init__.  For the
        ideal operations that derive such generators from a valid ideal."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "num_vars", num_vars)
        object.__setattr__(ideal, "gens", gens)
        return ideal

    @classmethod
    def from_generators(cls, gens, num_vars: int) -> "MonomialIdeal":
        gens = tuple(tuple(g) for g in gens)
        return cls(num_vars, _minimal_gens(gens))

    @classmethod
    def zero(cls, num_vars: int) -> "MonomialIdeal":
        return cls(num_vars, ())

    @classmethod
    def unit(cls, num_vars: int) -> "MonomialIdeal":
        return cls(num_vars, ((0,) * num_vars,))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def max_generator_degree(self) -> int:
        return max((sum(g) for g in self.gens), default=0)

    def contains(self, m: Monomial) -> bool:
        if len(m) != self.num_vars:
            raise ValueError("monomial length does not match num_vars")
        return any(divides(g, m) for g in self.gens)

    def saturate(self) -> "MonomialIdeal":
        """(I : x_n^infinity): strip all powers of the last variable from the
        generators.  For Borel-fixed ideals this is saturation by the whole
        irrelevant ideal.
        """
        stripped = [g[:-1] + (0,) for g in self.gens]
        return MonomialIdeal.from_generators(stripped, self.num_vars)

    def lift(self) -> "MonomialIdeal":
        """Same generators in a ring with one more variable."""
        return MonomialIdeal._trusted(
            self.num_vars + 1, tuple(g + (0,) for g in self.gens)
        )

    def difference(self) -> "MonomialIdeal":
        """Image under setting the last two variables to 1, one fewer variable.

        For a saturated Borel-fixed ideal the Hilbert polynomial of the
        result is the backward difference of the original one.
        """
        if self.num_vars < 2:
            raise ValueError("need at least two variables")
        cut = [g[: self.num_vars - 2] + (0,) for g in self.gens]
        return MonomialIdeal.from_generators(cut, self.num_vars - 1)

    def hilbert_numerator(self) -> tuple[int, ...]:
        """Coefficients of N(t) with series of S/I equal to N(t)/(1-t)^(n+1)."""
        return _numerator(self.gens, self.num_vars)

    def hilbert_function(self, d: int) -> int:
        """Number of degree-d monomials outside I (dimension of (S/I)_d)."""
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return _function_value(self.hilbert_numerator(), self.num_vars, d)

    def hilbert_polynomial(self) -> "HilbertData":
        return hilbert_polynomial(self)

    def __str__(self) -> str:
        if self.is_zero:
            return "<0>"
        return "<" + ", ".join(format_monomial(g) for g in self.gens) + ">"

    def to_json_dict(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "generators": [list(g) for g in self.gens],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonomialIdeal":
        return cls.from_generators(
            [tuple(g) for g in data["generators"]], int(data["num_vars"])
        )


def _poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    )


def _poly_shift(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    return (0,) * k + a


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


@lru_cache(maxsize=None)
def _numerator(gens: tuple[Monomial, ...], num_vars: int) -> tuple[int, ...]:
    if not gens:
        return (1,)
    if not any(gens[0]):
        return (0,)
    # pivot: the variable dividing the most generators
    counts = [0] * num_vars
    for g in gens:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    k = max(range(num_vars), key=lambda i: counts[i])
    if counts[k] <= 1:
        # pairwise coprime supports: complete-intersection numerator
        out = (1,)
        for g in gens:
            out = _poly_mul(out, (1,) + (0,) * (sum(g) - 1) + (-1,))
        return out
    with_k = tuple(g for g in gens if g[k] == 0)
    pivot = tuple(1 if i == k else 0 for i in range(num_vars))
    left = _minimal_gens(with_k + (pivot,))
    colon = _minimal_gens(
        tuple(g[:k] + (max(g[k] - 1, 0),) + g[k + 1 :] for g in gens)
    )
    return _poly_add(
        _numerator(left, num_vars), _poly_shift(_numerator(colon, num_vars), 1)
    )


def _function_value(numerator, num_vars: int, d: int) -> int:
    """HF(d) = sum_j c_j C(d - j + n, n), binomials by the counting convention."""
    n = num_vars - 1
    return sum(c * binomial(d - j + n, n) for j, c in enumerate(numerator) if c)


def hilbert_polynomial_values(numerator, num_vars: int, ts) -> list[int]:
    """HP(t) for each t in ts, for the quotient whose Hilbert series is
    numerator(t) / (1 - t)^num_vars.

    HP(t) = sum_j c_j C(t - j + n, n) with each binomial read as a
    polynomial in t (binomial_poly), so the values are exact at every t,
    also below the degree where HF and HP meet.  Trailing zero
    coefficients change nothing.
    """
    n = num_vars - 1
    terms = [(n - j, c) for j, c in enumerate(numerator) if c]
    return [sum(c * binomial_poly(t, a, n) for a, c in terms) for t in ts]


@dataclass(frozen=True)
class HilbertData:
    """The Hilbert polynomial of S/I and the degree from which the Hilbert
    function agrees with it.

    polynomial is None exactly when the Hilbert polynomial is zero: for
    the unit ideal, and for any ideal with finite-dimensional quotient
    (the zero polynomial has no partition).
    """

    ideal: MonomialIdeal
    polynomial: GotzmannPartition | None
    stabilization_degree: int

    @property
    def is_zero_polynomial(self) -> bool:
        return self.polynomial is None


def hilbert_polynomial(ideal: MonomialIdeal) -> HilbertData:
    """Compute the Hilbert polynomial of S/I as a Gotzmann partition, exactly.

    Both come from the numerator N(t) = sum_j c_j t^j of the Hilbert
    series N(t)/(1-t)^(n+1) of S/I: HF(d) = sum_j c_j C(d - j + n, n)
    with the counting convention, and HP(t) is the same sum with each
    binomial read as a polynomial in t.  A term of the two sums differs
    only where d - j + n < 0, so HF(d) = HP(d) for all d >= deg N - n,
    while at d = deg N - n - 1 exactly the top term differs, by
    (-1)^n c_top.  The stabilization degree is therefore
    max(deg N - n, 0), with no window to sample or verify.  The
    partition is read off the exact values HP(0), ..., HP(n+1) by
    partition_from_values; an all-zero HP (the unit ideal, or any ideal
    with finite-dimensional quotient) is reported with polynomial None.
    """
    n = ideal.num_vars - 1
    num = ideal.hilbert_numerator()
    deg = max((j for j, c in enumerate(num) if c), default=-1)
    stab = max(deg - n, 0)
    values = hilbert_polynomial_values(num, ideal.num_vars, range(n + 2))
    part = partition_from_values(values) if any(values) else None
    return HilbertData(ideal, part, stab)
