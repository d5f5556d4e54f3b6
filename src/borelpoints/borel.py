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
_expandable_keys, which looks up a generator's adjacent p-power blockers
among the generators in every characteristic (the lemmas in its
docstring), and _expand_keys, which keeps or drops each new multiple by
the lemma in its docstring.  They run on integer keys (KeyLayout), on
which each blocker and each new multiple is one addition.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from math import isqrt

from .errors import Value, set_slot
from .monomial_ideal import Monomial, MonomialIdeal

# Primes below this bound are checked by exact trial division, at most
# isqrt(2^31) = 46340 divisions.  Larger ones are refused: against an
# exponent l below p, exchange_amounts(l, p) allows every k <= l, so every
# prime above the exponents of an ideal gives the same exchange rule.
_MAX_CHARACTERISTIC = 2**31


class Characteristic(Value):
    """0 or a prime below 2^31, selecting the exchange rule."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        set_slot(self, "value", value)
        p = value
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


def _key_width(degree: int) -> int:
    """The exponent bits w of a KeyLayout for monomials of degree at most
    degree: 2^w - 1, the largest exponent a field holds, is at least
    degree + 2."""
    return (degree + 2).bit_length()


class KeyLayout:
    """One integer key per monomial of K[x_0, ..., x_{N-1}], N = num_vars,
    on which the Reeves walk makes its moves.

    Each x_i has a field of F = w + 1 bits at s_i = (N - 1 - i) F, x_0 in
    the most significant one.  The top bit of a field is a guard bit, and
    the w bits below it hold mask - m_i, mask = 2^w - 1, for exponents
    0 <= m_i <= mask.  With B = N F and Z the sum of the mask << s_i,
    the key of m is (deg m << B) | (Z - sum_i m_i << s_i), and its low
    part, key & (2^B - 1), is Z - sum_i m_i << s_i.  So:

    - Order.  Keys sort by degree, then by low part, which falls as the
      exponent tuple rises: integer order is canonical order, and a
      smaller low part is a larger tuple in tuple order.  none = 2^B is
      above every low part.
    - Moves.  m x_k has the key of m plus multiply[k] = 2^B - 2^(s_k), and
      x_l^{-q} x_{l+1}^q m that of m plus q steps[N - 1 - l], with
      steps[t] = 2^(t F) - 2^((t - 1) F), while every exponent stays at
      most mask.
    - Lift.  A monomial of fewer variables reads as 0 in the other
      fields, so g and (g, 0) have one key.
    - Divisibility.  Field i of low(h) + G - low(m), G the guard bits, is
      2^w + m_i - h_i, from 1 to 2^(w+1) - 1, so no field borrows from
      the next, and its guard bit is set exactly when h_i <= m_i.

    The repunit R = (2^B - 1) / (2^F - 1) = sum_i 2^(s_i), the geometric
    series in 2^F, holds a 1 in each field, so Z = mask R and G = R << w,
    with no sum over the fields.
    """

    __slots__ = (
        "num_vars", "width", "field", "low_bits", "low_mask", "none", "mask",
        "zero", "guards", "shifts", "multiply", "steps",
    )

    def __init__(self, num_vars: int, width: int):
        F = width + 1
        B = num_vars * F
        self.num_vars, self.width, self.field, self.low_bits = num_vars, width, F, B
        self.none = none = 1 << B
        self.low_mask = none - 1
        self.mask = (1 << width) - 1
        repunit = self.low_mask // ((1 << F) - 1)
        self.zero = self.mask * repunit
        self.guards = repunit << width
        self.shifts = shifts = range(B - F, -1, -F)
        self.multiply = [none - (1 << s) for s in shifts]
        self.steps = [0] + [((1 << F) - 1) << s for s in range(0, B - F, F)]

    def encode(self, m: Monomial) -> int:
        """The key of m, which has at most num_vars exponents."""
        low = self.zero - sum(e << s for e, s in zip(m, self.shifts) if e)
        return (sum(m) << self.low_bits) | low

    def decode(self, key: int, num_vars: int) -> Monomial:
        """The monomial in num_vars variables with the key, or the low part
        of one.  It reads only the fields of the variables dividing it,
        from the top."""
        exps = self.zero - (key & self.low_mask)
        m = [0] * num_vars
        while exps:
            s = (exps.bit_length() - 1) // self.field * self.field
            m[self.num_vars - 1 - s // self.field] = exps >> s
            exps &= (1 << s) - 1
        return tuple(m)

    def divides(self, h: int, m: int) -> bool:
        """Whether the monomial of the key h divides that of the key m."""
        guards, low = self.guards, self.low_mask
        return ((h & low) + guards - (m & low)) & guards == guards

    def ideals(self, level: dict, num_vars: int) -> dict:
        """The dict level, keyed by generator key tuples, keyed instead by
        their ideals in num_vars variables, in the same order; each
        distinct key is decoded once."""
        monomial = {k: self.decode(k, num_vars) for k in set().union(*level)}.get
        return {
            MonomialIdeal._trusted(num_vars, tuple(map(monomial, keys))): value
            for keys, value in level.items()
        }


def expandable_generators(I: MonomialIdeal) -> list[Monomial]:
    """Generators at which I can be expanded, in canonical order.

    g qualifies when no generator of I equals x_i^{-1} x_{i+1} g for some
    x_i dividing g with i < n - 1.  I must be saturated and strongly
    stable; this public entry point checks that once and raises
    ValueError otherwise.  The Reeves walk calls the unchecked
    _expandable_keys, since every ideal it visits has that property by
    construction (see the reeves module).
    """
    if not is_strongly_stable(I):
        raise ValueError(f"expansion needs a strongly stable ideal, got {I}")
    if I.saturate() != I:
        raise ValueError(f"expansion needs a saturated ideal, got {I}")
    lay = KeyLayout(I.num_vars, _key_width(I.max_generator_degree))
    keys = tuple(map(lay.encode, I.gens))
    found = _expandable_keys(keys, lay.none, I.num_vars - 1, lay, 0)
    return [lay.decode(g, I.num_vars) for g in found]


def _blockers(g: int, lay: KeyLayout, p: int) -> list[int]:
    """The keys of every adjacent p-power blocker x_l^{-q} x_{l+1}^q g of
    the key g: q = p^e <= g_l with digit e of g_{l+1} below p - 1, only
    q = 1 in characteristic 0, for every x_l dividing g but the last
    variable of lay, whose step is 0.  They are listed field by field
    from x_0 and by rising q, the order in which _expandable_keys looks
    them up without blockers."""
    F, mask, steps = lay.field, lay.mask, lay.steps
    exps = lay.zero - (g & lay.low_mask)
    fields = exps >> F << F
    out = []
    while fields:
        s = (fields.bit_length() - 1) // F * F  # the field of x_l
        fields &= (1 << s) - 1
        step = steps[s // F]
        if not p:
            out.append(g + step)
            continue
        e, below, q = exps >> s & mask, exps >> s - F & mask, 1
        while q <= e:
            if below // q % p < p - 1:
                out.append(g + q * step)
            q *= p
    return out


def _expandable_keys(
    keys: tuple[int, ...],
    last: int,
    n: int,
    lay: KeyLayout,
    p: int,
    blockers: dict | None = None,
) -> list[int]:
    """The keys g, in order, of the generators of the saturated
    Borel-fixed (in characteristic p) ideal I of K[x_0, ..., x_n] with the
    generator keys at which the walk's expansion stays Borel-fixed, and
    whose low part is below last.  last is the low part of the key of a
    generator, so g lies above that one in tuple order, or lay.none,
    which admits every g.  The unit qualifies.

    A blocker of g is a v = x_i^{-k} x_j^k g with i < j < n, 1 <= k <= g_i
    and k digitwise below g_j + k, so that a legal exchange takes v to g.
    The reeves module proves that g qualifies exactly when no blocker of
    g lies in I.  By Lemma 2 that holds when no adjacent p-power blocker
    x_l^{-q} x_{l+1}^q g (q = p^e <= g_l, digit e of g_{l+1} below p - 1)
    lies in I, and by Lemma 1 when none is a generator.  Characteristic 0
    reads as a base above every exponent: q = 1, and nothing carries.
    There are two paths to that test, with the same result.

    - blockers None: for each g this visits the fields of the x_l with
      g_l > 0, l < n - 1, the set bits of Z - low(g) above those of
      x_{n-1}, and looks the blocker g plus q steps of the field
      (KeyLayout) up in the generator keys, stopping at the first it
      finds.  It looks up q = 1 in every characteristic, and reads digit
      0 of g_{l+1} only when that finds a generator; only for p > 0 does
      it go on to the q = p^e <= g_l.
    - blockers a dict: g qualifies when the generator keys are disjoint
      from blockers[g], the frozenset of _blockers(g, lay, p), made on
      the first test of g.  That set also holds the blockers with
      l >= n - 1, so by Lemma 3 the dict may serve every call of a walk
      with this lay and p, at every level.  A walk visits the same
      generator key at many ideals, as an expansion keeps every
      generator but the one it replaces and a lift keeps every key, so
      every test after the first is one disjointness test of that small
      set against the key tuple, which probes the set once per key and
      stops at the first blocker, at the cost of holding one set per
      distinct key.  This path builds no set of the keys.

    Lemma 1.  If I is Borel-fixed for p and g is a minimal generator, a
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

    Lemma 2.  If I is Borel-fixed for p and a blocker
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

    Lemma 3.  If I is saturated, a key of _blockers(g, lay, p) that the
    path without blockers does not look up is not a generator of I.

    Proof.  The path without blockers looks up every listed blocker with
    l < n - 1.  For l >= n, g_l = 0, as g is a monomial of
    K[x_0, ..., x_n], so none is listed.  For l = n - 1 the blocker
    x_{n-1}^{-q} x_n^q g has a positive x_n exponent, and no generator
    of the saturated Borel-fixed ideal I has one: I : x_n = I, so a
    generator x_n h would put h in I, against its minimality.  So both
    paths find a generator among the blockers of g for the same g, and
    the list depends on g, lay and p only, not on n.
    """
    low_mask = lay.low_mask
    out = []
    if blockers is not None:
        for g in keys:
            if g & low_mask < last:
                listed = blockers.get(g)
                if listed is None:
                    listed = blockers[g] = frozenset(_blockers(g, lay, p))
                if listed.isdisjoint(keys):
                    out.append(g)
        return out
    gens = set(keys)
    F, zero, mask, steps = lay.field, lay.zero, lay.mask, lay.steps
    cut = (lay.num_vars - n + 1) * F
    for g in keys:
        low = g & low_mask
        if low >= last:
            continue
        exps = zero - low
        fields = exps >> cut << cut
        while fields:
            s = (fields.bit_length() - 1) // F * F  # the field of x_l
            fields &= (1 << s) - 1
            step = steps[s // F]
            if g + step in gens and (not p or (exps >> s - F & mask) % p < p - 1):
                break
            if p:
                e, q = exps >> s & mask, p
                while q <= e and not (
                    g + q * step in gens and (exps >> s - F & mask) // q % p < p - 1
                ):
                    q *= p
                if q <= e:
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
    only; the Reeves walk calls the unchecked _expand_keys.
    """
    if g not in expandable_generators(I):
        raise ValueError(f"{g} is not an expandable generator of {I}")
    if not any(g):
        raise ValueError("cannot expand at the unit monomial")
    lay = KeyLayout(I.num_vars, _key_width(I.max_generator_degree))
    keys = tuple(map(lay.encode, I.gens))
    found = _expand_keys(keys, lay.encode(g), I.num_vars - 1, lay, 0)
    return MonomialIdeal._trusted(I.num_vars, tuple(lay.decode(k, I.num_vars) for k in found))


def _expand_keys(
    keys: tuple[int, ...], g: int, n: int, lay: KeyLayout, p: int
) -> tuple[int, ...]:
    """The generator keys, sorted, of the ideal I of K[x_0, ..., x_n] with
    the generator keys, expanded at g in characteristic p: g replaced by
    every g x_k, k < n, that no other generator divides.  g must be a
    non-unit one of _expandable_keys, I being saturated and Borel-fixed
    for p; then the result is too (see the reeves module), and it needs
    no other minimalization.  The generators other than g stay minimal,
    since none is a multiple of g, so none is a multiple of any g x_k,
    and the g x_k share one degree, so none divides another.  A generator
    dividing g x_k has degree at most a = deg g, and not a + 1, since
    then it would equal g x_k, a multiple of the generator g.  Which
    g x_k survive is decided by the lemma below, and only where it
    leaves the answer open is g x_k tested against the generators of
    degree at most a other than g.

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
    g (see _expandable_keys), as 1 is digitwise below g_k + 1 = 1; no
    blocker of an expandable g lies in I.  (c) As in (b): 1 is digitwise
    below g_high + 1 exactly when g_high mod p != p - 1.

    On keys: high is the field of the lowest set bit of Z - low(g), each
    survivor's key is the key of g plus multiply[k], the case (d) test is
    KeyLayout.divides, on the guard bits, and the keys sorted are the
    generators in canonical order.  So the survivors are spliced into the
    sorted keys: g is found at index i by bisection and deleted, and as
    every multiple is above g, each survivor is inserted by bisection
    from i.  The generators case (d) tests against are the keys below
    the first key of degree a + 1, without the one at i.
    """
    F, low_mask, mask, shifts, multiply = (
        lay.field, lay.low_mask, lay.mask, lay.shifts, lay.multiply
    )
    exps = lay.zero - (g & low_mask)
    high = lay.num_vars - 1 - ((exps & -exps).bit_length() - 1) // F
    top = kept = high  # g x_k is dropped for k < top and kept for k >= kept
    if p:  # in characteristic 0, base a + 2, 0 < g_high < p - 1: no (d)
        e = exps >> shifts[high] & mask
        if not 0 < e % p < p - 1:
            kept += e % p == p - 1
            while top and (exps >> shifts[top] & mask) % p == 0:
                top -= 1
    i = bisect_left(keys, g)
    out = list(keys)
    del out[i]
    for step in multiply[kept:n]:
        insort(out, g + step, i)
    if top < kept:  # case (d): test against the generators of degree <= a
        bound = (g >> lay.low_bits) + 1 << lay.low_bits
        lower = keys[:i] + keys[i + 1 : bisect_left(keys, bound, i)]
        divides = lay.divides
        for k in range(top, kept):
            m = g + multiply[k]
            if not any(divides(h, m) for h in lower):
                insort(out, m, i)
    return tuple(out)
