import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import math
from collections import Counter
from itertools import accumulate, combinations_with_replacement, product
from operator import le

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from borelpoints import (
    CHAR0,
    Characteristic,
    GotzmannPartition,
    MonomialIdeal,
    borel_closure,
    default_grid,
    digitwise_leq,
    enumerate_strongly_stable,
    exchange_amounts,
    expand,
    expandable_generators,
    is_borel_fixed,
    is_strongly_stable,
    monomials_of_degree,
)
from borelpoints import reeves
from borelpoints.monomial_ideal import canonical_key, divides
from borelpoints.borel import (
    KeyLayout,
    _blockers,
    _exchanges,
    _expand_keys,
    _expandable_keys,
    _key_width,
    exchange,
)

from conftest import (
    coordinate_step_holds,
    decode_ideal,
    expanded_numerator,
    ideal,
    mini_grid,
    on_ideal,
    one_minus_t_power,
    recording_expand_keys,
    reference_borel_closure,
    reference_borel_expand,
    reference_borel_expandable,
    reference_expand,
    reference_expand_keys,
    reference_expandable,
    saturated_strongly_stable,
    trim,
)

P2 = Characteristic(2)
P3 = Characteristic(3)
P5 = Characteristic(5)


class TestCharacteristic:
    def test_accepts_zero_and_primes(self):
        for v in (0, 2, 3, 5, 7, 11, 13):
            assert Characteristic(v).value == v

    def test_rejects_composites_and_units(self):
        for v in (1, 4, 6, 9, 15, -2):
            with pytest.raises(ValueError):
                Characteristic(v)

    def test_matches_sieve(self):
        limit = 2000
        composite = set()
        for q in range(2, limit):
            composite.update(range(q * q, limit, q))
        for v in range(limit):
            try:
                Characteristic(v)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (v == 0 or (v >= 2 and v not in composite)), v

    def test_bound(self):
        # 2^31 - 1 is prime and the largest value checked by trial division;
        # larger values, prime or not, are refused without any division
        assert Characteristic(2**31 - 1).value == 2**31 - 1
        for v in (2**31, 10**18 + 3, 10**400):
            with pytest.raises(ValueError, match="below 2\\^31"):
                Characteristic(v)


class TestDigitwiseLeq:
    def test_examples(self):
        assert digitwise_leq(1, 3, P2)
        assert not digitwise_leq(1, 2, P2)
        assert digitwise_leq(2, 2, P3)

    def test_char_zero_single_steps(self):
        assert digitwise_leq(0, 5, CHAR0)
        assert digitwise_leq(1, 1, CHAR0)
        assert digitwise_leq(1, 4, CHAR0)
        assert not digitwise_leq(2, 4, CHAR0)

    def test_reflexive_for_primes(self):
        for p in (2, 3, 5):
            ch = Characteristic(p)
            for l in range(12):
                assert digitwise_leq(l, l, ch)

    def test_lucas(self):
        # Lucas: C(l, k) is nonzero mod p iff the base-p digits of k are
        # dominated by those of l
        for p in (2, 3, 5, 7):
            ch = Characteristic(p)
            for l in range(50):
                for k in range(l + 1):
                    expected = math.comb(l, k) % p != 0
                    assert digitwise_leq(k, l, ch) == expected, (k, l, p)

    def test_exchange_amounts(self):
        assert exchange_amounts(2, P2) == [2]
        assert exchange_amounts(3, P2) == [1, 2, 3]
        assert exchange_amounts(2, P3) == [1, 2]
        assert exchange_amounts(4, CHAR0) == [1]
        assert exchange_amounts(0, CHAR0) == []
        assert exchange_amounts(0, P2) == []

    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
    def test_exchange_amounts_match_brute_force(self, p):
        ch = Characteristic(p)
        for l in range(301):
            brute = [k for k in range(1, l + 1) if digitwise_leq(k, l, ch)]
            assert exchange_amounts(l, ch) == brute, (l, p)

    def test_exchange_amounts_cost_follows_the_output(self):
        # l is huge and its legal amounts few: the cost follows the output
        assert exchange_amounts(10**7, CHAR0) == [1]
        assert exchange_amounts(2**40, P2) == [2**40]


class TestStabilityPredicates:
    def test_pardue_examples(self):
        I = ideal([(2, 0, 0), (0, 2, 0)], 3)
        assert is_borel_fixed(I, P2)
        assert not is_borel_fixed(I, P3)
        J = ideal([(1, 0, 0), (0, 3, 0)], 3)
        assert is_borel_fixed(J, P2)

    def test_strongly_stable_examples(self):
        assert is_strongly_stable(ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3))
        assert not is_strongly_stable(ideal([(2, 0, 0), (0, 2, 0)], 3))
        assert is_strongly_stable(MonomialIdeal.zero(3))

    def test_unit_ideal_is_stable(self):
        assert is_strongly_stable(MonomialIdeal.unit(3))

    def test_generator_check_equals_full_membership_check(self, ideal_zoo):
        # movewise condition on every monomial of bounded degree must agree
        # with the generator-level predicate
        for I in ideal_zoo:
            for ch in (CHAR0, P2, P3):
                claimed = is_borel_fixed(I, ch)
                top = I.max_generator_degree + 2
                actual = True
                for d in range(1, top + 1):
                    for m in monomials_of_degree(d, I.num_vars):
                        if not I.contains(m):
                            continue
                        for j in range(1, I.num_vars):
                            for k in exchange_amounts(m[j], ch):
                                for i in range(j):
                                    if not I.contains(exchange(m, i, j, k)):
                                        actual = False
                assert claimed == actual, (str(I), ch.value)


def closure_grid():
    out = []
    for num_vars in (3, 4):
        for d in (1, 2, 3):
            for m in monomials_of_degree(d, num_vars):
                out.append((m, num_vars))
    return out


class TestBorelClosure:
    def test_examples(self):
        assert borel_closure([(0, 2, 0)], CHAR0, 3).gens == (
            (2, 0, 0),
            (1, 1, 0),
            (0, 2, 0),
        )
        assert borel_closure([(0, 2, 0)], P2, 3).gens == ((2, 0, 0), (0, 2, 0))
        assert borel_closure([(1, 0, 0)], CHAR0, 3) == ideal([(1, 0, 0)], 3)
        assert borel_closure([(1, 0, 0)], P3, 3) == ideal([(1, 0, 0)], 3)

    def test_closure_output_is_fixed(self):
        for (m, num_vars) in closure_grid():
            for ch in (CHAR0, P2, P3):
                closed = borel_closure([m], ch, num_vars)
                assert is_borel_fixed(closed, ch), (m, ch.value)

    def test_extensive_and_idempotent(self):
        for (m, num_vars) in closure_grid():
            for ch in (CHAR0, P2, P3):
                closed = borel_closure([m], ch, num_vars)
                assert closed.contains(m)
                assert borel_closure(closed.gens, ch, num_vars) == closed

    def test_closure_fixes_exactly_the_stable_ideals(self, ideal_zoo):
        for I in ideal_zoo:
            closed = borel_closure(I.gens, CHAR0, I.num_vars)
            assert (closed == I) == is_strongly_stable(I)

    def test_matches_reference_on_single_monomials(self):
        for (m, num_vars) in closure_grid():
            for ch in (CHAR0, P2, P3, P5):
                assert borel_closure([m], ch, num_vars) == reference_borel_closure(
                    [m], ch, num_vars
                ), (m, ch.value)

    def test_matches_reference_on_zoo(self, ideal_zoo):
        for I in ideal_zoo:
            for ch in (CHAR0, P2, P3, P5):
                got = borel_closure(I.gens, ch, I.num_vars)
                assert got == reference_borel_closure(I.gens, ch, I.num_vars), (
                    str(I),
                    ch.value,
                )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference_on_random_generators(self, data):
        num_vars = data.draw(st.integers(3, 4))
        monomial = st.lists(
            st.integers(0, 3), min_size=num_vars, max_size=num_vars
        ).filter(lambda e: sum(e) <= 5)
        gens = [tuple(g) for g in data.draw(st.lists(monomial, min_size=1, max_size=4))]
        ch = data.draw(st.sampled_from((CHAR0, P2, P3, P5)))
        assert borel_closure(gens, ch, num_vars) == reference_borel_closure(
            gens, ch, num_vars
        )

    def test_strongly_stable_implies_borel_fixed_all_primes(self):
        for (m, num_vars) in closure_grid():
            I = borel_closure([m], CHAR0, num_vars)
            for p in (2, 3, 5, 7):
                assert is_borel_fixed(I, Characteristic(p)), (m, p)


@st.composite
def layout_and_monomials(draw, count):
    """A KeyLayout of 1 to 6 variables and width 1 to 5, and count
    monomials in as many variables whose exponents its fields hold."""
    lay = KeyLayout(draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    monomial = st.tuples(*[st.integers(0, lay.mask)] * lay.num_vars)
    return lay, *(draw(monomial) for _ in range(count))


class TestKeyLayout:
    # the integer keys the walk's moves run on (borel.KeyLayout)

    @settings(max_examples=300, deadline=None)
    @given(layout_and_monomials(1))
    def test_round_trip(self, case):
        lay, m = case
        key = lay.encode(m)
        assert lay.decode(key, lay.num_vars) == m
        assert lay.decode(key & lay.low_mask, lay.num_vars) == m
        assert key >> lay.low_bits == sum(m)
        assert key & lay.low_mask < lay.none

    @settings(max_examples=200, deadline=None)
    @given(layout_and_monomials(6))
    def test_sorted_keys_in_canonical_order(self, case):
        lay, *monomials = case
        keys = sorted(set(map(lay.encode, monomials)))
        decoded = [lay.decode(k, lay.num_vars) for k in keys]
        assert decoded == sorted(set(monomials), key=canonical_key)

    @settings(max_examples=300, deadline=None)
    @given(layout_and_monomials(2))
    def test_low_parts_reverse_tuple_order(self, case):
        # regardless of degree, as the walk's last compares them
        lay, m, v = case
        low_m, low_v = (lay.encode(x) & lay.low_mask for x in (m, v))
        assert (low_m < low_v) == (m > v)
        assert (low_m == low_v) == (m == v)

    @settings(max_examples=300, deadline=None)
    @given(layout_and_monomials(1))
    def test_moves_are_one_addition(self, case):
        lay, m = case
        n, key = lay.num_vars, lay.encode(m)
        for l in range(n - 1):
            for q in range(1, m[l] + 1):
                v = exchange(m, l + 1, l, q)  # x_l^{-q} x_{l+1}^q m
                if v[l + 1] <= lay.mask:
                    assert key + q * lay.steps[n - 1 - l] == lay.encode(v), (m, l, q)
        for k in range(n):
            if m[k] < lay.mask:
                v = m[:k] + (m[k] + 1,) + m[k + 1 :]
                assert key + lay.multiply[k] == lay.encode(v), (m, k)

    @settings(max_examples=300, deadline=None)
    @given(layout_and_monomials(1), st.integers(0, 6))
    def test_same_key_at_every_level(self, case, cut):
        # a monomial of fewer variables has the key of its lift, so a
        # lift changes no key
        lay, m = case
        short = m[: max(lay.num_vars - cut, 1)]
        padded = short + (0,) * (lay.num_vars - len(short))
        assert lay.encode(short) == lay.encode(padded)
        assert lay.decode(lay.encode(short), len(short)) == short

    @settings(max_examples=300, deadline=None)
    @given(layout_and_monomials(2))
    def test_guard_bit_divisibility(self, case):
        lay, h, m = case
        hk, mk = lay.encode(h), lay.encode(m)
        assert lay.divides(hk, mk) == divides(h, m)
        assert lay.divides(mk, hk) == divides(m, h)
        assert lay.divides(hk, hk)

    def test_slots_match_the_field_definitions(self):
        # the closed forms (repunit sums, a stride range of shifts) against
        # each slot built field by field from its definition
        for N in range(1, 13):
            for w in range(1, 9):
                lay, F, mask = KeyLayout(N, w), w + 1, 2**w - 1
                B = N * F
                shifts = [(N - 1 - i) * F for i in range(N)]
                assert list(lay.shifts) == shifts, (N, w)
                assert (lay.field, lay.low_bits, lay.mask) == (F, B, mask), (N, w)
                assert (lay.none, lay.low_mask) == (2**B, 2**B - 1), (N, w)
                assert lay.zero == sum(mask * 2**s for s in shifts), (N, w)
                assert lay.guards == sum(2 ** (s + w) for s in shifts), (N, w)
                assert lay.multiply == [2**B - 2**s for s in shifts], (N, w)
                assert lay.steps == [0] + [
                    2 ** (t * F) - 2 ** ((t - 1) * F) for t in range(1, N)
                ], (N, w)

    def test_key_width(self):
        # the width holds every exponent up to degree + 2, and no less
        for degree in range(1000):
            w = _key_width(degree)
            assert 2**w - 1 >= degree + 2 > 2 ** (w - 1) - 1, degree


class TestExpansion:
    def test_expandable_examples(self):
        I = ideal([(1, 0, 0), (0, 3, 0)], 3)
        assert expandable_generators(I) == [(1, 0, 0), (0, 3, 0)]
        J = ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        assert expandable_generators(J) == [(0, 2, 0)]
        K = ideal([(1, 0)], 2)
        assert expandable_generators(K) == [(1, 0)]

    def test_expand_at_linear_generator(self):
        I = ideal([(1, 0, 0, 0), (0, 3, 0, 0)], 4)
        E = expand(I, (1, 0, 0, 0))
        assert E == ideal(
            [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 3, 0, 0)], 4
        )

    def test_expand_at_cube(self):
        I = ideal([(1, 0, 0, 0), (0, 3, 0, 0)], 4)
        E = expand(I, (0, 3, 0, 0))
        assert E == ideal([(1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)], 4)

    def test_expand_rejects_blocked_generator(self):
        J = ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        with pytest.raises(ValueError):
            expand(J, (1, 1, 0))

    def test_expansion_increments_hilbert_polynomial(self):
        for gens, num_vars in [
            ([(1, 0, 0), (0, 2, 0)], 3),
            ([(1, 0, 0, 0), (0, 3, 0, 0)], 4),
            ([(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)], 4),
        ]:
            I = ideal(gens, num_vars)
            p = I.hilbert_polynomial().polynomial
            for g in expandable_generators(I):
                E = expand(I, g)
                assert E.hilbert_polynomial().polynomial == p.increment()
                assert is_strongly_stable(E)
                assert E.saturate() == E


def expand_from_scratch(I, g):
    """Reference for the expansion move _expand_keys: the same generator
    list, minimalized from scratch by from_generators."""
    top = max(i for i, e in enumerate(g) if e > 0)
    gens = [h for h in I.gens if h != g]
    gens.extend(
        g[:j] + (g[j] + 1,) + g[j + 1 :] for j in range(top, I.num_vars - 1)
    )
    return MonomialIdeal.from_generators(gens, I.num_vars)


class TestIncrementalExpand:
    def test_matches_from_generators_on_walk_outputs(self):
        for partition, n in mini_grid():
            for I in enumerate_strongly_stable(partition, n):
                for g in expandable_generators(I):
                    J = on_ideal(_expand_keys, I, g, CHAR0)
                    assert J == expand_from_scratch(I, g), (str(I), g)

    @settings(max_examples=200, deadline=None)
    @given(saturated_strongly_stable())
    def test_matches_from_generators_on_closures(self, I):
        for g in expandable_generators(I):
            E = on_ideal(_expand_keys, I, g, CHAR0)
            assert E == expand_from_scratch(I, g)
            assert is_strongly_stable(E)
            assert E.saturate() == E


def walk_visits(monkeypatch, runs, ch=CHAR0):
    """Every ideal, decoded, the Reeves walk in characteristic ch passes
    to its expandable-generators move _expandable_keys or gets back from
    its expansion move _expand_keys while running each of runs."""
    seen = set()

    def spy_expandable(keys, last, n, lay, p, blockers=None):
        seen.add(decode_ideal(keys, n + 1, lay))
        return _expandable_keys(keys, last, n, lay, p, blockers)

    built = []
    with monkeypatch.context() as m:
        m.setattr(reeves, "_expandable_keys", spy_expandable)
        m.setattr(reeves, "_expand_keys", recording_expand_keys(built))
        for partition, n in runs:
            enumerate_strongly_stable(partition, n, ch)
    return seen.union(built)


def assert_helpers_match_reference(I):
    gens = on_ideal(_expandable_keys, I, (), CHAR0)
    assert gens == reference_expandable(I), str(I)
    for g in gens:
        J = on_ideal(_expand_keys, I, g, CHAR0)
        assert J == reference_expand(I, g), (str(I), g)
    # the walk's bound: only the generators above last are tested
    for last in I.gens:
        expected = [g for g in gens if g > last]
        found = on_ideal(_expandable_keys, I, last, CHAR0)
        assert found == expected, (str(I), last)


class TestAgainstReferenceHelpers:
    # the key moves _expandable_keys and _expand_keys against the
    # definition-by-any and the insort-by-canonical_key forms kept in
    # conftest

    @pytest.mark.parametrize(
        "runs",
        [mini_grid()] + [[(GotzmannPartition((0,) * k), 4)] for k in (14, 16)],
        ids=["mini_grid", "14 points in P^4", "16 points in P^4"],
    )
    def test_walk_visits(self, monkeypatch, runs):
        seen = walk_visits(monkeypatch, runs)
        assert seen
        for I in seen:
            assert_helpers_match_reference(I)

    @settings(max_examples=200, deadline=None)
    @given(saturated_strongly_stable())
    def test_closures(self, I):
        assert_helpers_match_reference(I)

    @pytest.mark.parametrize(
        "gens, num_vars, g, expected",
        [
            # g is the last generator
            ([(1, 0, 0), (0, 2, 0)], 3, (0, 2, 0), [(1, 0, 0), (0, 3, 0)]),
            # no generator of degree deg g + 1, but one of higher degree
            (
                [(1, 0, 0), (0, 3, 0)],
                3,
                (1, 0, 0),
                [(2, 0, 0), (1, 1, 0), (0, 3, 0)],
            ),
            # a generator of g's degree follows g
            (
                [
                    (1, 0, 0, 0, 0),
                    (0, 2, 0, 0, 0),
                    (0, 1, 1, 0, 0),
                    (0, 1, 0, 1, 0),
                    (0, 0, 2, 0, 0),
                    (0, 0, 1, 2, 0),
                    (0, 0, 0, 3, 0),
                ],
                5,
                (0, 1, 0, 1, 0),
                [
                    (1, 0, 0, 0, 0),
                    (0, 2, 0, 0, 0),
                    (0, 1, 1, 0, 0),
                    (0, 0, 2, 0, 0),
                    (0, 1, 0, 2, 0),
                    (0, 0, 1, 2, 0),
                    (0, 0, 0, 3, 0),
                ],
            ),
            # the multiple lands between generators of degree deg g + 1
            (
                [
                    (1, 0, 0, 0, 0),
                    (0, 2, 0, 0, 0),
                    (0, 1, 1, 0, 0),
                    (0, 0, 3, 0, 0),
                    (0, 0, 2, 1, 0),
                    (0, 1, 0, 3, 0),
                    (0, 0, 1, 3, 0),
                    (0, 0, 0, 4, 0),
                ],
                5,
                (0, 0, 2, 1, 0),
                [
                    (1, 0, 0, 0, 0),
                    (0, 2, 0, 0, 0),
                    (0, 1, 1, 0, 0),
                    (0, 0, 3, 0, 0),
                    (0, 1, 0, 3, 0),
                    (0, 0, 2, 2, 0),
                    (0, 0, 1, 3, 0),
                    (0, 0, 0, 4, 0),
                ],
            ),
            # two variables: every generator is expandable
            ([(3, 0)], 2, (3, 0), [(4, 0)]),
        ],
    )
    def test_block_merge_edge_cases(self, gens, num_vars, g, expected):
        I = ideal(gens, num_vars)
        assert I.gens == tuple(gens)
        assert g in on_ideal(_expandable_keys, I, (), CHAR0)
        assert on_ideal(_expand_keys, I, g, CHAR0).gens == tuple(expected)
        assert_helpers_match_reference(I)


def assert_same_as_validated(J):
    """J, built without checks, equals the checked construction of its
    own generators, hashes alike, and is valid."""
    checked = MonomialIdeal(J.num_vars, J.gens)
    assert J == checked and hash(J) == hash(checked)
    assert type(J) is MonomialIdeal
    assert MonomialIdeal.from_generators(J.gens, J.num_vars) == J


@st.composite
def saturated_p_borel(draw):
    """A saturated p-Borel ideal other than the unit ideal, p = 2 or 3,
    with its characteristic: the saturated Borel closure of up to three
    small monomials."""
    ch = Characteristic(draw(st.sampled_from([2, 3])))
    num_vars = draw(st.integers(2, 4))
    monomial = st.lists(
        st.integers(0, 4), min_size=num_vars, max_size=num_vars
    ).filter(lambda e: 1 <= sum(e) <= 5)
    gens = draw(st.lists(monomial, min_size=1, max_size=3))
    I = borel_closure([tuple(g) for g in gens], ch, num_vars).saturate()
    assume(not I.is_unit)
    return I, ch


def assert_borel_moves_match_reference(I, ch):
    # order included: lists and generator tuples compare in order
    for last in ((),) + I.gens:
        expected = reference_borel_expandable(I, last, ch)
        found = on_ideal(_expandable_keys, I, last, ch)
        assert found == expected, (str(I), last, ch.value)
    for g in reference_borel_expandable(I, (), ch):
        J = on_ideal(_expand_keys, I, g, ch)
        assert J.gens == reference_borel_expand(I, g).gens, (str(I), g, ch.value)


def assert_blockers_in_ideal_are_generators(I, ch):
    # Lemma 1 at borel._expandable_keys: a blocker x_i^{-k} x_j^k g of a
    # generator g lies in I exactly when it is a generator of I
    gen_set = set(I.gens)
    n = I.num_vars - 1
    for g in I.gens:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(1, g[i] + 1):
                    if digitwise_leq(k, g[j] + k, ch):
                        v = exchange(g, j, i, k)
                        assert I.contains(v) == (v in gen_set), (str(I), g, v)


def adjacent_p_power_blockers(g, p):
    """The x_l^{-q} x_{l+1}^q g, l + 1 < len(g), with q = p^e <= g_l and
    digit e of g_{l+1} below p - 1: the blockers borel._expandable_keys
    looks up, with the window's last coordinate standing for some x_j,
    j < n."""
    out = set()
    for l in range(len(g) - 1):
        q = 1
        while q <= g[l]:
            if g[l + 1] // q % p < p - 1:
                out.add(exchange(g, l + 1, l, q))
            q *= p
    return out


def orbit_meets(v, targets, ch):
    """Whether the exchange orbit of v meets targets.  A legal exchange
    moves mass to a lower index, so it lowers no prefix sum
    v_0 + ... + v_l, and a monomial with some prefix sum above that of
    each target reaches none: the search drops it."""
    tops = [tuple(accumulate(t)) for t in targets]
    seen = {v}
    todo = [v]
    while todo:
        w = todo.pop()
        if w in targets:
            return True
        for u in _exchanges(w, ch):
            if u not in seen:
                seen.add(u)
                sums = tuple(accumulate(u))
                if any(all(map(le, sums, top)) for top in tops):
                    todo.append(u)
    return False


def lemma_case(g, k, p):
    """The case, "a" to "d", of the lemma at borel._expand_keys that decides
    whether g x_k survives the expansion at g, in base p."""
    high = max(i for i, e in enumerate(g) if e)
    top = max((i for i in range(high + 1) if g[i] % p), default=0)
    if k < top:
        return "a"
    if k > high:
        return "b"
    if k == high and g[high] % p != p - 1:
        return "c"
    return "d"


def splice_walks(p):
    """The (partition, n) cells whose Reeves walks check the splice of
    borel._expand_keys in characteristic p: every cell of
    default_grid(8, 4, (2, 3, 4)) at p = 0, 2, 3, 5, and 10 to 22 points
    in P^3 and P^4 at p = 0, 2."""
    cells = {(c.partition, c.n) for c in default_grid(8, 4, (2, 3, 4))}
    if p in (0, 2):
        cells |= {
            (GotzmannPartition((0,) * k), n) for k in range(10, 23) for n in (3, 4)
        }
    return sorted(cells, key=lambda cell: (cell[0].parts, cell[1]))


class TestExpandSplice:
    # borel._expand_keys splices each surviving multiple into the sorted
    # key tuple by bisection; reference_expand_keys in conftest appends
    # them and sorts the whole list

    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_equals_reference_on_every_walk_expansion(self, monkeypatch, p):
        calls = interleaved = case_d = 0

        def spy(keys, g, n, lay, q):
            nonlocal calls, interleaved, case_d
            out = _expand_keys(keys, g, n, lay, q)
            assert out == reference_expand_keys(keys, g, n, lay, q), (keys, g, q)
            calls += 1
            # appending the multiples unordered would break this one
            interleaved += out[: len(keys) - 1] != tuple(h for h in keys if h != g)
            if q and not case_d:
                m = lay.decode(g, n + 1)
                case_d += any(lemma_case(m, k, q) == "d" for k in range(n))
            return out

        ch = Characteristic(p)
        with monkeypatch.context() as m:
            m.setattr(reeves, "_expand_keys", spy)
            for partition, n in splice_walks(p):
                enumerate_strongly_stable(partition, n, ch)
        assert calls > 1000
        assert interleaved > 100
        assert (case_d > 0) == (p > 0)


class TestBorelMoves:
    # the walk's moves, borel._expandable_keys and borel._expand_keys, in
    # every characteristic

    def test_blocker_lists_are_the_adjacent_p_power_blockers(self):
        # borel._blockers lists each x_l^{-q} x_{l+1}^q g once, for every
        # l but the last; characteristic 0 reads as a base above every
        # exponent, here 11
        lay = KeyLayout(4, _key_width(9))
        for p, base in [(0, 11), (2, 2), (3, 3), (5, 5)]:
            for g in product(range(4), repeat=4):
                found = [lay.decode(b, 4) for b in _blockers(lay.encode(g), lay, p)]
                assert len(found) == len(set(found)), (g, p)
                assert set(found) == adjacent_p_power_blockers(g, base), (g, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equal_references_on_walk_visits(self, monkeypatch, p):
        ch = Characteristic(p)
        seen = walk_visits(monkeypatch, mini_grid(), ch)
        assert len(seen) > 100
        for I in seen:
            assert_borel_moves_match_reference(I, ch)

    @settings(max_examples=300, deadline=None)
    @given(saturated_p_borel())
    def test_equal_references_on_closures(self, case):
        assert_borel_moves_match_reference(*case)

    @settings(max_examples=200, deadline=None)
    @given(saturated_strongly_stable())
    def test_equal_references_on_char0_closures(self, I):
        assert_borel_moves_match_reference(I, CHAR0)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_blockers_in_ideal_are_generators_on_walk_visits(self, monkeypatch, p):
        ch = Characteristic(p)
        seen = walk_visits(monkeypatch, mini_grid(), ch)
        assert len(seen) > 100
        for I in seen:
            assert_blockers_in_ideal_are_generators(I, ch)

    @settings(max_examples=300, deadline=None)
    @given(saturated_p_borel())
    def test_blockers_in_ideal_are_generators_on_closures(self, case):
        assert_blockers_in_ideal_are_generators(*case)

    @pytest.mark.parametrize(
        "p, coordinates, bound",
        [(2, 3, 9), (2, 4, 5), (3, 3, 9), (3, 4, 5), (5, 3, 9), (5, 4, 5)],
    )
    def test_every_blocker_reaches_an_adjacent_p_power_blocker(
        self, p, coordinates, bound
    ):
        # Lemma 2 at borel._expandable_keys on a window: legal exchanges move
        # mass to lower indices only, so whether the orbit of a blocker
        # x_i^{-k} x_j^k g holds an adjacent p-power blocker depends on
        # g_i, ..., g_j alone; here i = 0 and j is the last coordinate,
        # for every g with exponents at most bound
        ch = Characteristic(p)
        cases = 0
        for g in product(range(bound + 1), repeat=coordinates):
            targets = adjacent_p_power_blockers(g, p)
            for k in range(1, g[0] + 1):
                if digitwise_leq(k, g[-1] + k, ch):
                    v = exchange(g, coordinates - 1, 0, k)
                    assert orbit_meets(v, targets, ch), (g, k)
                    cases += 1
        assert cases > 1000

    def test_char0_equals_expandable_and_expand_on_walk_visits(self, monkeypatch):
        # in characteristic 0 each move equals both references
        runs = mini_grid() + [(GotzmannPartition((0,) * 14), 4)]
        seen = walk_visits(monkeypatch, runs)
        assert len(seen) > 300
        for I in seen:
            gens = reference_expandable(I)
            for last in ((),) + I.gens:
                expected = reference_borel_expandable(I, last, CHAR0)
                assert expected == [g for g in gens if g > last], (str(I), last)
                found = on_ideal(_expandable_keys, I, last, CHAR0)
                assert found == expected, (str(I), last)
            for g in on_ideal(_expandable_keys, I, (), CHAR0):
                J = on_ideal(_expand_keys, I, g, CHAR0)
                assert J.gens == reference_expand(I, g).gens, (str(I), g)
                assert J.gens == reference_borel_expand(I, g).gens, (str(I), g)

    @settings(max_examples=300, deadline=None)
    @given(saturated_p_borel())
    def test_expandable_exactly_when_expansion_is_borel_fixed(self, case):
        # the module docstring of reeves proves the equivalence, the
        # numerator rule and the coordinate step in every characteristic;
        # the expansion at a blocked g is the reference's, as _expand_keys
        # needs an expandable one
        I, ch = case
        assert is_borel_fixed(I, ch)
        n = I.num_vars - 1
        N = I.hilbert_numerator()
        step = one_minus_t_power(n)
        expandable = on_ideal(_expandable_keys, I, (), ch)
        for g in I.gens:
            if not any(g):
                continue
            J = reference_borel_expand(I, g)
            if g in expandable:
                assert on_ideal(_expand_keys, I, g, ch) == J, (str(I), g)
            assert J.saturate() == J
            assert is_borel_fixed(J, ch) == (g in expandable), (str(I), g)
            N_J = J.hilbert_numerator()
            assert trim(N_J) == trim(expanded_numerator(N, sum(g), step))
            assert coordinate_step_holds(N, N_J, n, sum(g)), (str(I), g)

    def test_nonstandard_example(self):
        # <x0^2, x1^2> is 2-Borel, not strongly stable.  x0^2 is blocked
        # by x1^2, which exchanges to it in characteristic 2; x1^2 is
        # expandable and gives <x0^2, x0*x1^2, x1^3>: x0*x1^2 falls in
        # case (d) of the lemma at borel._expand_keys, and the scan keeps it
        # where the char-0 rule would drop it
        p2 = Characteristic(2)
        I = ideal([(2, 0, 0), (0, 2, 0)], 3)
        assert on_ideal(_expandable_keys, I, (), p2) == [(0, 2, 0)]
        assert not is_borel_fixed(reference_borel_expand(I, (2, 0, 0)), p2)
        assert lemma_case((0, 2, 0), 0, 2) == "d"
        assert on_ideal(_expand_keys, I, (0, 2, 0), p2) == ideal(
            [(2, 0, 0), (1, 2, 0), (0, 3, 0)], 3
        )
        # in <x0, x1^2> the same case (d) drops x0*x1^2, a multiple of x0
        I = ideal([(1, 0, 0), (0, 2, 0)], 3)
        assert on_ideal(_expandable_keys, I, (), p2) == [(1, 0, 0), (0, 2, 0)]
        J = on_ideal(_expand_keys, I, (0, 2, 0), p2)
        assert J == ideal([(1, 0, 0), (0, 3, 0)], 3)
        # the digit test: in <x0^2, x0*x1, x1^2> at p = 2 the generator
        # x1^2 = x0^{-1} x1 * x0*x1 blocks x0*x1 in characteristic 0 only,
        # since adding 1 and 1 carries; expanding there gives <x0^2, x1^2>
        I = ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        assert on_ideal(_expandable_keys, I, (), p2) == [(1, 1, 0), (0, 2, 0)]
        assert reference_borel_expandable(I, (), p2) == [(1, 1, 0), (0, 2, 0)]
        assert on_ideal(_expandable_keys, I, (), CHAR0) == [(0, 2, 0)]
        J = on_ideal(_expand_keys, I, (1, 1, 0), p2)
        assert J == ideal([(2, 0, 0), (0, 2, 0)], 3)
        assert is_borel_fixed(J, p2)

    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_lemma_cases_on_small_closures(self, p):
        # the lemma at borel._expand_keys on every expandable generator of the
        # closures of one or two x_n-free monomials, with exponents at
        # most 4 in 3 variables and at most 3 in 4: (a) drops g x_k,
        # (b) and (c) keep it, and only case (d), absent in
        # characteristic 0, needs the scan
        ch = Characteristic(p)
        ideals = set()
        for num_vars, bound in ((3, 4), (4, 3)):
            monomials = [
                m + (0,)
                for m in product(range(bound + 1), repeat=num_vars - 1)
                if any(m)
            ]
            for pair in combinations_with_replacement(monomials, 2):
                ideals.add(borel_closure(pair, ch, num_vars))
        outcomes = Counter()
        for I in ideals:
            for g in reference_borel_expandable(I, (), ch):
                J = reference_borel_expand(I, g)
                found = on_ideal(_expand_keys, I, g, ch)
                assert found.gens == J.gens, (str(I), g, p)
                if ch.is_zero:
                    assert reference_expand(I, g).gens == J.gens, (str(I), g)
                kept = set(J.gens)
                for k in range(I.num_vars - 1):
                    m = g[:k] + (g[k] + 1,) + g[k + 1 :]
                    outcomes[lemma_case(g, k, p or sum(g) + 2), m in kept] += 1
        assert not outcomes["a", True], outcomes
        assert not outcomes["b", False] and not outcomes["c", False], outcomes
        cases = {case for case, _ in outcomes}
        assert cases == ({"a", "b", "c"} if ch.is_zero else {"a", "b", "c", "d"})
        if p in (2, 3):
            assert outcomes["d", True] and outcomes["d", False], outcomes


class TestTrustedConstruction:
    # expand, the key move _expand_keys and lift() skip the generator
    # checks of MonomialIdeal

    def test_walk_outputs(self):
        for partition, n in mini_grid():
            for I in enumerate_strongly_stable(partition, n):
                assert_same_as_validated(I.lift())
                for g in expandable_generators(I):
                    assert_same_as_validated(on_ideal(_expand_keys, I, g, CHAR0))

    @settings(max_examples=100, deadline=None)
    @given(saturated_strongly_stable())
    def test_closures(self, I):
        assert_same_as_validated(I.lift())
        for g in expandable_generators(I):
            assert_same_as_validated(on_ideal(_expand_keys, I, g, CHAR0))

    @settings(max_examples=100, deadline=None)
    @given(saturated_p_borel())
    def test_borel_expand_on_closures(self, case):
        # _expand_keys drops only the new multiples another generator
        # divides; from_generators minimalizes from scratch
        I, ch = case
        for g in reference_borel_expandable(I, (), ch):
            J = on_ideal(_expand_keys, I, g, ch)
            assert_same_as_validated(J)
            new = [g[:i] + (g[i] + 1,) + g[i + 1 :] for i in range(I.num_vars - 1)]
            rest = [h for h in I.gens if h != g]
            assert J == MonomialIdeal.from_generators(rest + new, I.num_vars)

    def test_public_construction_still_checks(self):
        with pytest.raises(ValueError):
            MonomialIdeal(3, ((1, 0),))
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, -1),))
        with pytest.raises(ValueError):
            MonomialIdeal.from_generators([(1, -1)], 2)


NOT_STRONGLY_STABLE = ideal([(0, 1, 0)], 3)
NOT_SATURATED = ideal([(1, 0, 0), (0, 2, 0), (0, 1, 1)], 3)


class TestPublicPreconditions:
    @pytest.mark.parametrize("I", [NOT_STRONGLY_STABLE, NOT_SATURATED], ids=str)
    def test_expandable_generators_raises_value_error(self, I):
        with pytest.raises(ValueError):
            expandable_generators(I)

    @pytest.mark.parametrize("I", [NOT_STRONGLY_STABLE, NOT_SATURATED], ids=str)
    def test_expand_raises_value_error(self, I):
        for g in I.gens:
            with pytest.raises(ValueError):
                expand(I, g)

    def test_checks_survive_optimize_flag(self):
        code = textwrap.dedent(
            """
            from borelpoints import MonomialIdeal, expand, expandable_generators
            I = MonomialIdeal.from_generators([(1, 0, 0), (0, 2, 0), (0, 1, 1)], 3)
            for call in (expandable_generators, lambda I: expand(I, I.gens[0])):
                try:
                    call(I)
                except ValueError:
                    continue
                raise SystemExit(f"{call} raised no ValueError")
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_only_allowlisted_process_wide_caches(self):
        # a module-level cache lives as long as the process, so each one
        # must be a deliberate choice
        package = Path(reeves.__file__).parent
        cached = set()
        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = getattr(target, "id", None) or getattr(target, "attr", None)
                    if name in ("lru_cache", "cache"):
                        cached.add(f"{path.stem}.{node.name}")
        # build_parser takes no argument, so its cache holds one parser
        assert cached == {"cli.build_parser"}
