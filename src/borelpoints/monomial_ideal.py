"""Monomials as exponent tuples and monomial ideals with canonical generators.

A monomial in K[x_0, ..., x_n] is a tuple of n+1 nonnegative exponents.
A MonomialIdeal stores its minimal generating set sorted by (degree, then
lexicographic order with x_0 largest), so structural equality is ideal
equality and sets of ideals deduplicate for free.

Hilbert functions of quotients S/I are computed from the numerator of the
Hilbert series, obtained by Bigatti's pivot on a power of a variable,
N(I) = N(I + <x_k^e>) + t^e N(I : x_k^e), unrolled on one stack.  Two
independent reference implementations (direct monomial enumeration, and
inclusion-exclusion over generator lcms) live in the tests, which check
that all three agree.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement
from operator import le

from .errors import SearchBoundError, Value, set_slot
from .hilbert_poly import GotzmannPartition, binomial, peel_to_partition

Monomial = tuple[int, ...]


def divides(m: Monomial, other: Monomial) -> bool:
    return all(map(le, m, other))


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


def format_ideal(gens, name=format_monomial) -> str:
    """'<g1, g2, ...>' for a generator tuple, '<0>' when it is empty.

    name formats one generator; callers that print many ideals pass a
    memoized format_monomial.
    """
    if not gens:
        return "<0>"
    return "<" + ", ".join(map(name, gens)) + ">"


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
    """The minimal ones of gens, in canonical order.  A monomial other
    than m that divides m has lower degree, so m is tested only against
    the kept ones of lower degree."""
    unique = sorted(set(gens), key=canonical_key)
    kept: list[Monomial] = []
    lower: tuple[Monomial, ...] = ()
    degree = -1
    for m in unique:
        if sum(m) > degree:
            degree, lower = sum(m), tuple(kept)
        if not any(divides(g, m) for g in lower):
            kept.append(m)
    return tuple(kept)


def _step_budget(max_steps: int | None, what: str):
    """A spend(steps) that raises SearchBoundError once more than max_steps
    steps are spent in all; with None, one that never raises."""
    spent = 0

    def spend(steps: int) -> None:
        nonlocal spent
        spent += steps
        if max_steps is not None and spent > max_steps:
            raise SearchBoundError(f"size bound exceeded: {what} above {max_steps} steps")

    return spend


def monomials_of_degree(d: int, num_vars: int):
    """Yield all exponent tuples of total degree d, lexicographically,
    from the multisets of d variable indices in order."""
    for picks in combinations_with_replacement(range(num_vars), d):
        exps = [0] * num_vars
        for i in picks:
            exps[i] += 1
        yield tuple(exps)


class MonomialIdeal(Value):
    """A monomial ideal given by its canonical minimal generating set.

    The zero ideal has no generators; the unit ideal is generated by the
    unit monomial.  Use from_generators to build from an arbitrary set.
    """

    __slots__ = ("num_vars", "gens")

    def __init__(self, num_vars: int, gens: tuple[Monomial, ...]):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        for g in gens:
            if len(g) != num_vars:
                raise ValueError("generator length does not match num_vars")
            if any(e < 0 for e in g):
                raise ValueError("negative exponent in generator")
        set_slot(self, "num_vars", num_vars)
        set_slot(self, "gens", gens)

    @classmethod
    def _trusted(cls, num_vars: int, gens: tuple[Monomial, ...]) -> "MonomialIdeal":
        """Build from generators already known to be valid, minimal and in
        canonical order, skipping the checks of __init__.  For the code
        that derives such generators from a valid ideal or a bit layout."""
        ideal = object.__new__(cls)
        set_slot(ideal, "num_vars", num_vars)
        set_slot(ideal, "gens", gens)
        return ideal

    # Value's, spelled out for the two fields: sets of ideals hash and
    # compare them in every walk
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.num_vars == other.num_vars and self.gens == other.gens
        return NotImplemented

    def __hash__(self):
        return hash((self.num_vars, self.gens))

    @classmethod
    def from_generators(cls, gens, num_vars: int) -> "MonomialIdeal":
        gens = tuple(tuple(g) for g in gens)
        return cls(num_vars, _minimal_gens(gens))

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

    def is_saturated(self, max_steps: int) -> bool:
        """Whether I equals its saturation by the irrelevant ideal m, for any
        monomial ideal (saturate() is that only for Borel-fixed ideals): it
        does unless some u outside I has every u x_i in I, each u_i then
        below top_i, the largest exponent of x_i in a generator.  A greedy
        climb looks for such a u first, raising each u_i as far as u stays
        outside I once a generator bounds it.  Else I : m, the intersection
        of the I : x_i = I + (C_i), C_i the g / x_i below top, is folded as
        I + (R), R the minimal lcms outside I of R and C_i.  A divisibility
        test or an lcm is a step per variable, minimalizing k monomials
        k^2 / 2 tests; past max_steps, SearchBoundError."""
        gens, n = self.gens, self.num_vars
        spend_steps = _step_budget(max_steps, "saturation test")

        def spend(tests: int) -> None:
            spend_steps(tests * n)

        top = tuple(map(max, zip(*gens)))
        if not gens or not all(top):
            return True
        u, left, stuck = [0] * n, list(range(n)), None
        while left and left != stuck:
            spend(len(left) * len(gens))
            stuck, left = left, []
            for i in stuck:
                probe = u[:i] + [top[i]] + u[i + 1 :]
                bounds = [g[i] for g in gens if divides(g, probe)]
                if bounds:
                    u[i] = min(bounds) - 1
                else:
                    left.append(i)
        if not left:
            return False
        colons = []
        for i in range(n):
            lowered = {g[:i] + (g[i] - 1,) + g[i + 1 :] for g in gens if g[i]}
            colon = {c for c in lowered if all(map(int.__lt__, c, top))}
            spend(len(colon) ** 2 // 2)
            colons.append(_minimal_gens(colon))
        colons.sort(key=len)
        rest = colons[0]
        for colon in colons[1:]:
            spend(len(rest) * len(colon) * (len(gens) + 1))
            outside = {m for f in rest for c in colon if not self.contains(m := tuple(map(max, f, c)))}
            spend(len(outside) ** 2 // 2)
            rest = _minimal_gens(outside)
        return not rest

    def hilbert_numerator(self, max_steps: int | None = None) -> tuple[int, ...]:
        """Coefficients of N(t) with series of S/I equal to N(t)/(1-t)^(n+1),
        with no trailing zeros (none at all for the unit ideal).  The pivot
        loop charges each of its steps (see _numerator); past max_steps,
        SearchBoundError.  None, the default, sets no bound."""
        terms = _numerator(self.gens, self.num_vars, max_steps)
        coefficients = [0] * (terms[-1][0] + 1 if terms else 0)
        for j, c in terms:
            coefficients[j] = c
        return tuple(coefficients)

    def hilbert_function(self, d: int) -> int:
        """Number of degree-d monomials outside I (dimension of (S/I)_d):
        sum_j c_j C(d - j + n, n) over the numerator's terms, binomials by
        the counting convention."""
        if d < 0:
            raise ValueError("degree must be nonnegative")
        n = self.num_vars - 1
        return sum(c * binomial(d - j + n, n) for j, c in _numerator(self.gens, self.num_vars))

    def __str__(self) -> str:
        return format_ideal(self.gens)

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


def _numerator(
    gens: tuple[Monomial, ...], num_vars: int, max_steps: int | None = None
) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (j, c_j), by increasing j, of the numerator of the
    Hilbert series of S/(gens), gens minimal.  The pivot on a power
    u = x_k^e, x_k the variable dividing the most generators and e its
    least positive exponent among them, splits N(I) = N(I + (u)) +
    t^e N(I : u).  One loop unrolls it on a stack of (gens, shift)
    entries and adds each leaf at its shift: the unit ideal adds 0, and
    pairwise coprime generators the product of the 1 - t^deg(g).  Each
    node spends its reads and divisibility tests, a step per variable:
    the pivot count reads every generator, and the colon minimalizes the
    m lowered generators, m^2 / 2 tests, then tests each free one against
    at most m of them; past max_steps, SearchBoundError.  A leaf's
    product is not charged; check-ideal bounds it by the degree sum."""
    spend = _step_budget(max_steps, "Hilbert numerator")
    total: Counter[int] = Counter()
    stack = [(gens, 0)]
    while stack:
        gens, shift = stack.pop()
        if gens and not any(gens[0]):
            continue
        counts = [0] * num_vars
        for g in gens:
            for i, e in enumerate(g):
                if e:
                    counts[i] += 1
        spend(num_vars * len(gens))
        k = max(range(num_vars), key=counts.__getitem__)
        m = counts[k]
        if m <= 1:
            # pairwise coprime supports: complete-intersection numerator
            product = Counter({shift: 1})
            for g in gens:
                d = sum(g)
                for j, c in list(product.items()):
                    product[j + d] -= c
            total.update(product)
            continue
        # x_k^e divides every generator that x_k divides, so I + (x_k^e) is
        # minimally generated by x_k^e and the generators free of x_k.  In
        # I : x_k^e a free generator divides no lowered g / x_k^e, else it
        # would divide g, so only the lowered ones are minimalized, and the
        # free ones, put after them so that a unit leads, are tested against them.
        spend(num_vars * (m * m // 2 + (len(gens) - m) * m))
        e = min(g[k] for g in gens if g[k])
        free = tuple(g for g in gens if not g[k])
        lowered = _minimal_gens(g[:k] + (g[k] - e,) + g[k + 1 :] for g in gens if g[k])
        kept = tuple(
            f for f in free if not any(all(map(le, low, f)) for low in lowered)
        )
        stack.append((free + ((0,) * k + (e,) + (0,) * (num_vars - k - 1),), shift))
        stack.append((lowered + kept, shift + e))
    return tuple(sorted((j, c) for j, c in total.items() if c))


class HilbertData(Value):
    """The Hilbert polynomial of S/I, None exactly when it is zero (the zero
    polynomial has no partition: the unit ideal, or a finite-dimensional
    quotient), and the degree from which the Hilbert function agrees."""

    __slots__ = ("polynomial", "stabilization_degree")

    def __init__(self, polynomial: GotzmannPartition | None, stabilization_degree: int):
        set_slot(self, "polynomial", polynomial)
        set_slot(self, "stabilization_degree", stabilization_degree)


def _coordinates(terms: tuple[tuple[int, int], ...], n: int) -> list[int]:
    """The h_i = (-1)^i sum_j c_j C(j, i), i <= n, of the numerator with
    the nonzero terms (j, c_j) (see hilbert_polynomial).  Each term adds
    its row c_j C(j, i), i <= min(j, n), built by
    C(j, i + 1) = C(j, i) (j - i) / (i + 1), an exact division, instead
    of a binomial from scratch per term and index."""
    h = [0] * (n + 1)
    for j, c in terms:
        x = c
        for i in range(min(j, n) + 1):
            h[i] += x
            x = x * (j - i) // (i + 1)
    return [-x if i % 2 else x for i, x in enumerate(h)]


def hilbert_polynomial(ideal: MonomialIdeal, max_steps: int | None = None) -> HilbertData:
    """Compute the Hilbert polynomial of S/I as a Gotzmann partition, exactly.

    Both come from the numerator N(t) = sum_j c_j t^j of the Hilbert
    series N(t)/(1-t)^(n+1) of S/I: HF(d) = sum_j c_j C(d - j + n, n)
    with the counting convention, and HP(t) is the same sum with each
    binomial read as a polynomial in t.  A term of the two sums differs
    only where d - j + n < 0, so HF(d) = HP(d) for all d >= deg N - n,
    while at d = deg N - n - 1 exactly the top term differs, by
    (-1)^n c_top.  The stabilization degree is therefore
    max(deg N - n, 0).  The partition is peeled by peel_to_partition off
    the coordinates tau_m = h_{n-m} of HP in the basis C(t + m, m), the
    form of GotzmannPartition.coordinates, where
    h_i = (-1)^i sum_j c_j C(j, i) (see the reeves docstring); the sums
    run over the nonzero c_j alone, which can be few in a long numerator.
    max_steps bounds the numerator (MonomialIdeal.hilbert_numerator).
    """
    n = ideal.num_vars - 1
    terms = _numerator(ideal.gens, ideal.num_vars, max_steps)
    stab = max(terms[-1][0] - n, 0) if terms else 0
    h = _coordinates(terms, n)
    part = peel_to_partition(h[::-1]) if any(h) else None
    return HilbertData(part, stab)
