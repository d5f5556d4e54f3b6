import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from borelpoints import (
    GotzmannPartition,
    MonomialIdeal,
    binomial,
    enumerate_strongly_stable,
    format_monomial,
    monomials_of_degree,
    parse_monomial,
)
from borelpoints.monomial_ideal import divides, max_index

from conftest import (
    acceptance_sweep_cells,
    brute_standard_count,
    hilbert_function_by_enumeration,
    hilbert_function_by_lcm,
    ideal,
    reference_hilbert_polynomial,
)


class TestMonomialBasics:
    def test_max_index(self):
        assert max_index((0, 5, 1, 0)) == 2

    def test_unit_has_no_max_index(self):
        with pytest.raises(ValueError):
            max_index((0, 0))

    def test_divides(self):
        assert divides((1, 0, 0), (1, 2, 0))
        assert not divides((2, 0, 0), (1, 2, 0))

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
            MonomialIdeal.zero(3).contains((1, 0))

    def test_monomials_of_degree_count(self):
        assert sum(1 for _ in monomials_of_degree(4, 3)) == binomial(6, 2)


class TestMinimalize:
    def test_drops_multiples(self):
        I = MonomialIdeal.from_generators([(1, 0, 0), (1, 1, 0), (0, 3, 0)], 3)
        assert I.gens == ((1, 0, 0), (0, 3, 0))

    def test_already_minimal(self):
        I = MonomialIdeal.from_generators([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        assert I.gens == ((2, 0, 0), (1, 1, 0), (0, 2, 0))

    def test_empty_is_zero_ideal(self):
        I = MonomialIdeal.from_generators([], 3)
        assert I.is_zero
        assert not I.is_unit

    def test_unit_swallows_everything(self):
        I = MonomialIdeal.from_generators([(0, 0, 0), (1, 0, 0)], 3)
        assert I.is_unit

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
        Z = MonomialIdeal.zero(3)
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
        Z = MonomialIdeal.zero(4)
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
        assert I.hilbert_polynomial().polynomial.parts == (1, 1, 1, 0)

    def test_twisted_cubic_lex(self):
        I = ideal([(1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)], 4)
        for j in range(4, 8):
            assert brute_standard_count(I.gens, 4, j) == 3 * j + 1
        assert I.hilbert_polynomial().polynomial.parts == (1, 1, 1, 0)

    def test_four_points_nonstandard(self):
        I = ideal([(2, 0, 0), (0, 2, 0)], 3)
        assert I.hilbert_polynomial().polynomial.parts == (0, 0, 0, 0)

    def test_unit_ideal_zero_polynomial(self):
        I = MonomialIdeal.unit(3)
        data = I.hilbert_polynomial()
        assert data.polynomial is None
        assert data.is_zero_polynomial
        assert all(I.hilbert_function(d) == 0 for d in range(12))

    def test_zero_ideal_polynomial(self):
        data = MonomialIdeal.zero(4).hilbert_polynomial()
        assert data.polynomial.parts == (3,)

    def test_artinian_quotient_zero_polynomial(self):
        data = ideal([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 3).hilbert_polynomial()
        assert data.polynomial is None
        assert data.stabilization_degree == 7  # last nonzero value sits at 6

    def test_function_matches_polynomial_past_stabilization(self, ideal_zoo):
        for I in ideal_zoo:
            data = I.hilbert_polynomial()
            expected = (lambda d: 0) if data.polynomial is None else data.polynomial.evaluate
            stab = data.stabilization_degree
            top = max(I.max_generator_degree + I.num_vars, stab) + I.num_vars + 5
            for d in range(stab, top):
                assert I.hilbert_function(d) == expected(d), (str(I), d)
            if stab > 0:
                assert I.hilbert_function(stab - 1) != expected(stab - 1), str(I)

    def test_no_regularity_hint_needed(self):
        I = ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        assert I.hilbert_polynomial().polynomial.parts == (0, 0, 0)

    def test_quasi_stable_pair(self):
        # a quotient of constant dimension 2 whose lift has dimension 2t+1;
        # neither ideal is fixed under any Borel group
        from borelpoints import CHAR0, is_borel_fixed

        I = ideal([(2, 0, 0), (0, 1, 0)], 3)
        assert I.hilbert_polynomial().polynomial.parts == (0, 0)
        assert I.lift().hilbert_polynomial().polynomial.parts == (1, 1)
        assert not is_borel_fixed(I, CHAR0)
        assert not is_borel_fixed(I.lift(), CHAR0)

    def test_stable_non_borel_example(self):
        from borelpoints import CHAR0, is_borel_fixed

        I = ideal([(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (0, 1, 1, 0)], 4)
        assert I.hilbert_polynomial().polynomial.parts == (1, 1, 0)
        assert not is_borel_fixed(I, CHAR0)


def assert_matches_sampling(I):
    """The exact engine agrees with the sampling reference on I."""
    ref = reference_hilbert_polynomial(I)
    assert ref is not None, str(I)
    data = I.hilbert_polynomial()
    assert (data.polynomial, data.stabilization_degree) == ref, str(I)


monomial_ideals = st.integers(1, 4).flatmap(
    lambda num_vars: st.lists(
        st.tuples(*[st.integers(0, 4)] * num_vars), max_size=5
    ).map(lambda gens: MonomialIdeal.from_generators(gens, num_vars))
)


class TestExactAgainstSampling:
    def test_zoo(self, ideal_zoo):
        for I in ideal_zoo:
            assert_matches_sampling(I)

    def test_acceptance_sweep_lifts_and_differences(self):
        for partition, n in acceptance_sweep_cells():
            for I in enumerate_strongly_stable(partition, n):
                assert_matches_sampling(I)
                assert_matches_sampling(I.lift())
                assert_matches_sampling(I.difference())

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


class TestLiftAndDifference:
    def test_lift_examples(self):
        I = ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        L = I.lift()
        assert L.num_vars == 4
        assert L.gens == ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))
        assert MonomialIdeal.zero(2).lift() == MonomialIdeal.zero(3)
        assert ideal([(1, 0)], 2).lift() == ideal([(1, 0, 0)], 3)

    def test_difference_examples(self):
        I = ideal([(1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)], 4)
        assert I.difference() == ideal([(1, 0, 0), (0, 3, 0)], 3)
        J = ideal([(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)], 4)
        assert J.difference() == ideal([(2, 0, 0), (1, 1, 0), (0, 2, 0)], 3)
        K = ideal([(0, 0, 3, 0)], 4)
        assert K.difference().is_unit

    def test_difference_needs_two_variables(self):
        with pytest.raises(ValueError):
            ideal([(1,)], 1).difference()


class TestJsonAndText:
    def test_json_round_trip(self, ideal_zoo):
        for I in ideal_zoo:
            assert MonomialIdeal.from_json_dict(I.to_json_dict()) == I

    def test_str(self):
        I = ideal([(2, 0, 0), (1, 1, 0)], 3)
        assert str(I) == "<x0^2, x0*x1>"
        assert str(MonomialIdeal.zero(2)) == "<0>"
        assert str(MonomialIdeal.unit(2)) == "<1>"
