from functools import partial
from itertools import product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from borelpoints import (
    CHAR0,
    GotzmannPartition,
    MonomialIdeal,
    binomial,
    enumerate_strongly_stable,
    format_monomial,
    hilbert_polynomial,
    is_borel_fixed,
    lex_ideal,
    monomials_of_degree,
    parse_monomial,
)
from borelpoints import monomial_ideal
from borelpoints.errors import SearchBoundError
from borelpoints.monomial_ideal import divides

from conftest import (
    acceptance_sweep_cells,
    all_partitions,
    brute_standard_count,
    difference,
    hilbert_function_by_enumeration,
    hilbert_function_by_lcm,
    ideal,
    lift,
    mini_grid,
    numerator_coordinates,
    one_minus_t_power,
    reference_hilbert_polynomial,
    reference_is_saturated,
    trim,
    unit_ideal,
    zero_ideal,
)

BIG = 10**12


class TestMonomialBasics:
    def test_divides(self):
        assert divides((1, 0, 0), (1, 2, 0))
        assert not divides((2, 0, 0), (1, 2, 0))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                *[st.lists(st.integers(0, 4), min_size=n, max_size=n)] * 2
            )
        ),
        st.booleans(),
    )
    def test_divides_equals_zip_form(self, pair, as_list):
        # is_saturated passes a list as the second argument
        m, other = pair
        other = other if as_list else tuple(other)
        expected = all(a <= b for a, b in zip(m, other))
        assert divides(tuple(m), other) == expected

    def test_format_parse_round_trip(self):
        for m in [(2, 1, 0), (0, 0, 0), (0, 0, 3), (1, 1, 1)]:
            assert parse_monomial(format_monomial(m), 3) == m

    def test_parse_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            parse_monomial("x5", 3)

    def test_parse_accumulates_repeated_factors(self):
        assert parse_monomial("x0*x0^2", 3) == (3, 0, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal.from_generators([(1, 0)], 3)
        with pytest.raises(ValueError):
            zero_ideal(3).contains((1, 0))

    def test_monomials_of_degree_count(self):
        assert sum(1 for _ in monomials_of_degree(4, 3)) == binomial(6, 2)

    def test_monomials_of_degree_in_decreasing_order(self):
        for num_vars in range(1, 5):
            for d in range(5):
                cube = product(range(d + 1), repeat=num_vars)
                expected = sorted((m for m in cube if sum(m) == d), reverse=True)
                assert list(monomials_of_degree(d, num_vars)) == expected, (d, num_vars)

    def test_monomials_of_degree_needs_no_deep_stack(self):
        # more variables than Python's recursion limit has frames
        assert sum(1 for _ in monomials_of_degree(1, 1100)) == 1100


class TestMinimalize:
    def test_drops_multiples(self):
        I = MonomialIdeal.from_generators([(1, 0, 0), (1, 1, 0), (0, 3, 0)], 3)
        assert I.gens == ((1, 0, 0), (0, 3, 0))

    def test_already_minimal(self):
        I = MonomialIdeal.from_generators([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        assert I.gens == ((2, 0, 0), (1, 1, 0), (0, 2, 0))

    def test_empty_is_zero_ideal(self):
        I = MonomialIdeal.from_generators([], 3)
        assert I.gens == ()

    def test_unit_swallows_everything(self):
        I = MonomialIdeal.from_generators([(0, 0, 0), (1, 0, 0)], 3)
        assert I.gens == ((0, 0, 0),)

    def test_tests_only_against_lower_degrees(self, monkeypatch):
        # a monomial is divisible only by one of lower degree, so generators
        # of one degree are kept without a test, and each generator of
        # degree 2 here is tested against the one of degree 1
        tests = []

        def counting_divides(a, b):
            tests.append((a, b))
            return divides(a, b)

        monkeypatch.setattr(monomial_ideal, "divides", counting_divides)
        quadrics = [m for m in monomials_of_degree(2, 30) if max(m) == 1]
        assert len(MonomialIdeal.from_generators(quadrics, 30).gens) == 435
        assert tests == []
        x0 = (1,) + (0,) * 29
        I = MonomialIdeal.from_generators(quadrics + [x0], 30)
        assert len(I.gens) == 1 + 406
        assert len(tests) == 435 and {a for a, _ in tests} == {x0}

    def test_canonical_order_degree_then_lex(self):
        I = MonomialIdeal.from_generators([(0, 2, 0), (1, 1, 0), (0, 0, 1)], 3)
        assert I.gens == ((0, 0, 1), (1, 1, 0), (0, 2, 0))


class TestContains:
    def test_divisible(self):
        I = ideal([(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)], 4)
        assert I.contains((1, 1, 1, 0))

    def test_not_divisible(self):
        I = ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        assert not I.contains((1, 0, 2))
        # cross-check: it is one of the 3 standard monomials in degree 3
        assert brute_standard_count(I.gens, 3, 3) == 3

    def test_zero_ideal_contains_nothing(self):
        Z = zero_ideal(3)
        assert not Z.contains((0, 0, 0))
        assert not Z.contains((5, 5, 5))


class TestHilbertFunction:
    def test_strongly_stable_example(self):
        I = ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        assert I.hilbert_function(2) == 3

    def test_two_linear_forms(self):
        I = ideal([(1, 0, 0), (0, 1, 0)], 3)
        for d in range(6):
            assert I.hilbert_function(d) == 1

    def test_zero_ideal(self):
        Z = zero_ideal(4)
        for d in range(5):
            assert Z.hilbert_function(d) == binomial(d + 3, 3)

    def test_three_engines_agree(self, ideal_zoo):
        for I in ideal_zoo:
            for d in range(7):
                expected = brute_standard_count(I.gens, I.num_vars, d)
                assert I.hilbert_function(d) == expected, (str(I), d)
                assert hilbert_function_by_enumeration(I, d) == expected
                assert hilbert_function_by_lcm(I, d) == expected

    def test_bounded_by_full_ring(self, ideal_zoo):
        for I in ideal_zoo:
            n = I.num_vars - 1
            for d in range(6):
                h = I.hilbert_function(d)
                assert h <= binomial(d + n, n)
                low_gens = any(sum(g) <= d for g in I.gens)
                assert (h == binomial(d + n, n)) == (not low_gens)


class TestHilbertPolynomial:
    def test_plane_conic_pattern_lifted(self):
        # standard monomials of degree j are 3j+1 in four variables
        I = ideal([(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)], 4)
        for j in range(5, 9):
            assert brute_standard_count(I.gens, 4, j) == 3 * j + 1
        assert hilbert_polynomial(I).polynomial.parts == (1, 1, 1, 0)

    def test_twisted_cubic_lex(self):
        I = ideal([(1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)], 4)
        for j in range(4, 8):
            assert brute_standard_count(I.gens, 4, j) == 3 * j + 1
        assert hilbert_polynomial(I).polynomial.parts == (1, 1, 1, 0)

    def test_four_points_nonstandard(self):
        I = ideal([(2, 0, 0), (0, 2, 0)], 3)
        assert hilbert_polynomial(I).polynomial.parts == (0, 0, 0, 0)

    def test_unit_ideal_zero_polynomial(self):
        I = unit_ideal(3)
        data = hilbert_polynomial(I)
        assert data.polynomial is None
        assert all(I.hilbert_function(d) == 0 for d in range(12))

    def test_zero_ideal_polynomial(self):
        data = hilbert_polynomial(zero_ideal(4))
        assert data.polynomial.parts == (3,)

    def test_artinian_quotient_zero_polynomial(self):
        data = hilbert_polynomial(ideal([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 3))
        assert data.polynomial is None
        assert data.stabilization_degree == 7  # last nonzero value sits at 6

    def test_function_matches_polynomial_past_stabilization(self, ideal_zoo):
        for I in ideal_zoo:
            data = hilbert_polynomial(I)
            expected = (lambda d: 0) if data.polynomial is None else data.polynomial.evaluate
            stab = data.stabilization_degree
            top = max(I.max_generator_degree + I.num_vars, stab) + I.num_vars + 5
            for d in range(stab, top):
                assert I.hilbert_function(d) == expected(d), (str(I), d)
            if stab > 0:
                assert I.hilbert_function(stab - 1) != expected(stab - 1), str(I)

    def test_no_regularity_hint_needed(self):
        I = ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        assert hilbert_polynomial(I).polynomial.parts == (0, 0, 0)

    def test_quasi_stable_pair(self):
        # a quotient of constant dimension 2 whose lift has dimension 2t+1;
        # neither ideal is fixed under any Borel group
        from borelpoints import CHAR0, is_borel_fixed

        I = ideal([(2, 0, 0), (0, 1, 0)], 3)
        assert hilbert_polynomial(I).polynomial.parts == (0, 0)
        assert hilbert_polynomial(lift(I)).polynomial.parts == (1, 1)
        assert not is_borel_fixed(I, CHAR0)
        assert not is_borel_fixed(lift(I), CHAR0)

    def test_stable_non_borel_example(self):
        from borelpoints import CHAR0, is_borel_fixed

        I = ideal([(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (0, 1, 1, 0)], 4)
        assert hilbert_polynomial(I).polynomial.parts == (1, 1, 0)
        assert not is_borel_fixed(I, CHAR0)

    def test_coordinate_sums_skip_zero_coefficients(self, monkeypatch):
        # (x0^1000) in 5 variables has numerator 1 - t^1000: two nonzero
        # coefficients, so two rows of at most five binomials, not 1001
        calls = []

        def counting(terms, n):
            calls.append((terms, n))
            return coordinates(terms, n)

        coordinates = monomial_ideal._coordinates
        monkeypatch.setattr(monomial_ideal, "_coordinates", counting)
        I = ideal([(1000, 0, 0, 0, 0)], 5)
        assert I.hilbert_numerator()[1:-1] == (0,) * 999
        assert_matches_sampling(I)
        assert calls == [(((0, 1), (1000, -1)), 4)]

    def test_numerator_coordinates_are_the_partitions(self, monkeypatch):
        # the tau hilbert_polynomial reads off a numerator and the tau of
        # GotzmannPartition.coordinates are one convention: on lex ideals,
        # whose polynomial is known, they agree up to trailing zeros
        peeled = []

        def spy(tau):
            peeled.append(list(tau))
            return peel(tau)

        peel = monomial_ideal.peel_to_partition
        monkeypatch.setattr(monomial_ideal, "peel_to_partition", spy)
        for parts in all_partitions(6, 3):
            b = GotzmannPartition(parts)
            for n in range(b.degree + 1, b.degree + 4):
                peeled.clear()
                assert hilbert_polynomial(lex_ideal(b, n)).polynomial == b
                tau = list(b.coordinates())
                assert peeled == [tau + [0] * (n - b.degree)], (parts, n)


def assert_matches_sampling(I):
    """The exact engine agrees with the sampling reference on I."""
    ref = reference_hilbert_polynomial(I)
    assert ref is not None, str(I)
    data = hilbert_polynomial(I)
    assert (data.polynomial, data.stabilization_degree) == ref, str(I)


monomial_ideals = st.integers(1, 4).flatmap(
    lambda num_vars: st.lists(
        st.tuples(*[st.integers(0, 4)] * num_vars), max_size=5
    ).map(lambda gens: MonomialIdeal.from_generators(gens, num_vars))
)


def numerator_from_function(hf, num_vars, top):
    """The coefficients N_0, ..., N_top of N(t) = (1-t)^num_vars times
    sum_d hf(d) t^d, the Hilbert function hf read as a series."""
    return tuple(
        sum((-1) ** i * comb(num_vars, i) * hf(k - i) for i in range(min(k, num_vars) + 1))
        for k in range(top + 1)
    )


class TestNumerator:
    # the pivot loop against the two brute references, coefficient by
    # coefficient up to the degree of the lcm of all generators, past
    # which the numerator has none

    @settings(max_examples=200, deadline=None)
    @given(monomial_ideals)
    def test_random_ideals(self, I):
        top = sum(map(max, zip(*I.gens))) if I.gens else 0
        N = I.hilbert_numerator()
        assert all(c for _, c in monomial_ideal._numerator(I.gens, I.num_vars))
        for reference in (hilbert_function_by_enumeration, hilbert_function_by_lcm):
            hf = partial(reference, I)
            assert trim(numerator_from_function(hf, I.num_vars, top)) == N, str(I)

    def test_no_trailing_zero(self):
        # the two leaves' terms at t^5 cancel
        I = ideal([(1, 1, 0), (2, 0, 1), (1, 0, 2), (0, 1, 3)], 3)
        assert I.hilbert_numerator() == (1, 0, -1, -2, 2)
        assert unit_ideal(3).hilbert_numerator() == ()

    def test_power_pivot(self):
        # one pivot on x0^49999 leaves (x0^49999) and (x0, x1): a plane
        # curve of degree 49 999 and an embedded point.  Three nodes,
        # 3 * (2 + 2) + 3 * 1 + 3 * 2 = 21 steps; a pivot on x0 alone
        # would nest 49 999 deep
        I = ideal([(50000, 0, 0), (49999, 1, 0)], 3)
        assert I.hilbert_numerator(21) == (1,) + (0,) * 49999 + (-2, 1)
        data = hilbert_polynomial(I)
        assert data.stabilization_degree == 49999
        assert data.polynomial.parts == (1,) * 49999 + (0,)

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 80), st.integers(-(10**6), 10**6).filter(bool), max_size=12
        ),
        st.integers(0, 40),
    )
    def test_coordinates_equal_the_binomial_sum(self, coefficients, n):
        # hilbert_polynomial builds each term's row of binomials by the
        # ratio of neighbours; the reference sums C(j, i) from scratch
        terms = tuple(sorted(coefficients.items()))
        dense = [0] * (max(coefficients, default=0) + 1)
        for j, c in terms:
            dense[j] = c
        expected = numerator_coordinates(dense, 0, n + 1)
        assert tuple(monomial_ideal._coordinates(terms, n)) == expected

    def test_square_free_quadrics_in_20_variables(self):
        # S/I is the ring of 20 points on the coordinate axes, with
        # HF(0) = 1 and HF(d) = 20 after, so N(t) = (1 + 19t)(1-t)^19.
        # Every colon I : x_k holds all the other variables
        quadrics = [m for m in monomials_of_degree(2, 20) if max(m) == 1]
        I = MonomialIdeal.from_generators(quadrics, 20)
        step = one_minus_t_power(19)
        expected = tuple(a + 19 * b for a, b in zip(step + (0,), (0,) + step))
        assert trim(I.hilbert_numerator()) == expected


class TestNumeratorBudget:
    """hilbert_numerator(max_steps) charges the pivot loop's reads and
    divisibility tests, a step per variable, and raises SearchBoundError
    past max_steps; None, the default, sets no bound."""

    def test_budget_is_inclusive(self):
        # x0 x1 (x0, x1) in 2 variables: the pivot x0 reads 2 generators and
        # makes 2 + 0 tests, I + (x0) reads 1; the colon (x0 x1, x1^2)
        # pivots on x1, reading 2 and testing 2 + 0, its I + (x1) reads 1,
        # and its colon (x0, x1) reads 2 and ends as a product
        I = ideal([(2, 1), (1, 2)], 2)
        steps = 2 * ((2 + 2) + 1 + (2 + 2) + 1 + 2)
        assert steps == 24
        assert I.hilbert_numerator(steps) == I.hilbert_numerator() == (1, 0, 0, -2, 1)
        with pytest.raises(SearchBoundError, match="Hilbert numerator above 23 steps"):
            I.hilbert_numerator(steps - 1)

    def test_hilbert_polynomial_passes_the_budget(self):
        I = ideal([(2, 1), (1, 2)], 2)
        assert hilbert_polynomial(I, 24) == hilbert_polynomial(I)
        with pytest.raises(SearchBoundError, match="Hilbert numerator"):
            hilbert_polynomial(I, 23)

    def test_square_free_quadrics_trip_the_budget(self):
        # the pivot loop on the quadrics in 100 variables needs about
        # 1.3 * 10^9 steps; the budget stops it at the first node past 10^6
        quadrics = [m for m in monomials_of_degree(2, 100) if max(m) == 1]
        I = MonomialIdeal.from_generators(quadrics, 100)
        with pytest.raises(SearchBoundError, match="above 1000000 steps"):
            I.hilbert_numerator(10**6)


class TestExactAgainstSampling:
    def test_zoo(self, ideal_zoo):
        for I in ideal_zoo:
            assert_matches_sampling(I)

    def test_acceptance_sweep_lifts_and_differences(self):
        for partition, n in acceptance_sweep_cells():
            for I in enumerate_strongly_stable(partition, n):
                assert_matches_sampling(I)
                assert_matches_sampling(lift(I))
                assert_matches_sampling(difference(I))

    @settings(max_examples=300, deadline=None)
    @given(monomial_ideals)
    def test_random_ideals(self, I):
        # the reference gives up when its window never settles
        assume(reference_hilbert_polynomial(I) is not None)
        assert_matches_sampling(I)


class TestSaturate:
    def test_strip_last_variable(self):
        I = ideal([(1, 0, 0, 1), (0, 1, 0, 1)], 4)
        assert I.saturate().gens == ((1, 0, 0, 0), (0, 1, 0, 0))

    def test_already_saturated(self):
        I = ideal([(1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)], 4)
        assert I.saturate() == I

    def test_saturated_reeves_style_ideal(self):
        I = ideal([(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 3, 0, 0)], 4)
        assert I.saturate() == I

    def test_idempotent(self, ideal_zoo):
        for I in ideal_zoo:
            once = I.saturate()
            assert once.saturate() == once


class TestIsSaturated:
    """is_saturated: whether I equals its saturation by the irrelevant
    ideal, for any monomial ideal, within a step budget."""

    def test_examples(self):
        # (x0 x3, x1 x3) = (x3) and (x0, x1) intersected is saturated,
        # though not equal to I : x3^infinity
        assert ideal([(1, 0, 0, 1), (0, 1, 0, 1)], 4).is_saturated(BIG)
        assert not ideal([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 3).is_saturated(BIG)
        # x0 (x0, x1): x0 times every variable lies in I, x0 does not
        assert not ideal([(2, 0), (1, 1)], 2).is_saturated(BIG)
        assert zero_ideal(3).is_saturated(BIG)
        assert unit_ideal(3).is_saturated(BIG)

    def test_zoo(self, ideal_zoo):
        for I in ideal_zoo:
            assert I.is_saturated(BIG) == reference_is_saturated(I), I

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(0, 3)] * n), min_size=0, max_size=6
            ).map(lambda gens: MonomialIdeal.from_generators(gens, n))
        )
    )
    def test_random_ideals(self, I):
        assert I.is_saturated(BIG) == reference_is_saturated(I), I

    def test_borel_fixed_ideals_strip_the_last_variable(self):
        # for a Borel-fixed ideal saturation is I : x_n^infinity; the walk's
        # ideals are saturated, their truncations above the top generator
        # degree are Borel-fixed and not
        for partition, n in mini_grid():
            for I in enumerate_strongly_stable(partition, n):
                top = I.max_generator_degree + 1
                J = MonomialIdeal.from_generators(
                    [m for m in monomials_of_degree(top, n + 1) if I.contains(m)], n + 1
                )
                assert is_borel_fixed(J, CHAR0)
                for K in (I, J):
                    assert K.is_saturated(BIG) == (K.saturate() == K), K
                assert not J.is_saturated(BIG), J

    def test_budget_is_inclusive(self):
        # x0 x1 (x0, x1), 2 steps per test: the climb finds no bound, 2 * 2
        # tests; both colons are {x0 x1} below top (2, 2), no tests to
        # minimalize; the fold's one lcm pair costs 2 + 1 tests and leaves
        # x0 x1, outside I, so I is not saturated
        I = ideal([(2, 1), (1, 2)], 2)
        steps = 2 * (4 + 3)
        assert steps == 14 and not I.is_saturated(steps)
        with pytest.raises(SearchBoundError, match="above 13 steps"):
            I.is_saturated(steps - 1)

    def test_climb_finds_the_socle_of_artinian_ideals(self):
        # one pass of 3 * 3 tests raises u to (2, 2, 2), with no fold
        I = ideal([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 3)
        assert not I.is_saturated(27)
        with pytest.raises(SearchBoundError):
            I.is_saturated(26)
        # m^3 in 16 variables has 816 generators and is answered by the climb
        m3 = MonomialIdeal.from_generators(monomials_of_degree(3, 16), 16)
        assert not m3.is_saturated(16 * 16 * len(m3.gens))

    def test_exponent_bound_prunes_square_free_ideals(self):
        # every g / x_i of a square-free ideal reaches the top exponent 1 in
        # another variable, so the colons are empty after the climb's pass
        quadrics = [m for m in monomials_of_degree(2, 50) if max(m) == 1]
        I = MonomialIdeal.from_generators(quadrics, 50)
        assert I.is_saturated(50 * 50 * len(quadrics))

    def test_fold_when_the_climb_is_stuck(self):
        # x3 (x0^2, x1^2, x2^2, x3), with u x3 in I for u = x0 x1 x2 x3:
        # climbing x0 first finds no bound, as every generator holds x3
        I = ideal([(2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (0, 0, 0, 2)], 4)
        assert not I.is_saturated(BIG) and not reference_is_saturated(I)


class TestLiftAndDifference:
    def test_lift_examples(self):
        I = ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        L = lift(I)
        assert L.num_vars == 4
        assert L.gens == ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))
        assert lift(zero_ideal(2)) == zero_ideal(3)
        assert lift(ideal([(1, 0)], 2)) == ideal([(1, 0, 0)], 3)

    def test_difference_examples(self):
        I = ideal([(1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)], 4)
        assert difference(I) == ideal([(1, 0, 0), (0, 3, 0)], 3)
        J = ideal([(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)], 4)
        assert difference(J) == ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        K = ideal([(0, 0, 3, 0)], 4)
        assert difference(K) == unit_ideal(3)

    def test_difference_needs_two_variables(self):
        with pytest.raises(ValueError):
            difference(ideal([(1,)], 1))


class TestJsonAndText:
    def test_json_round_trip(self, ideal_zoo):
        for I in ideal_zoo:
            assert MonomialIdeal.from_json_dict(I.to_json_dict()) == I

    def test_str(self):
        I = ideal([(2, 0, 0), (1, 1, 0)], 3)
        assert str(I) == "<x0^2, x0*x1>"
        assert str(zero_ideal(2)) == "<0>"
        assert str(unit_ideal(2)) == "<1>"
