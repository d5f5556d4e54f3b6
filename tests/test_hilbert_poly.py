from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelpoints import (
    GotzmannPartition,
    MacaulayPartition,
    NotAdmissibleError,
    SearchBoundError,
    binomial,
    binomial_poly,
    peel_to_partition,
)

from borelpoints import hilbert_poly
from borelpoints.classify import partitions_up_to
from borelpoints.hilbert_poly import MAX_GOTZMANN_NUMBER

from conftest import (
    all_partitions,
    constant_difference,
    reference_coordinates,
    reference_peel,
)


def values(partition, base, width):
    return [partition.evaluate(t) for t in range(base, base + width)]


def polynomial_value(tau, t):
    """sum_m tau_m C(t + m, m), the polynomial with coordinates tau."""
    return sum(x * binomial_poly(t, m, m) for m, x in enumerate(tau))


# inadmissible polynomials as (coordinates, values at t = 0, 1, ...):
# t = C(t + 1, 1) - 1, t^2 = 2 C(t + 2, 2) - 3 C(t + 1, 1) + 1, the
# constant -1, and the zero polynomial
INADMISSIBLE = [
    ((-1, 1), (0, 1, 2)),
    ((1, -3, 2), (0, 1, 4, 9)),
    ((-1,), (-1, -1)),
    ((0, 0, 0), (0, 0, 0)),
]


class TestBinomials:
    def test_counting_convention(self):
        assert binomial(5, 2) == 10
        assert binomial(-1, 0) == 0
        assert binomial(3, 5) == 0
        assert binomial(4, -1) == 0

    def test_polynomial_convention(self):
        # C(t + a, b) as a polynomial can be negative and is 1 for b = 0
        assert binomial_poly(0, -3, 0) == 1
        assert binomial_poly(0, -2, 1) == -2
        assert binomial_poly(5, 1, 1) == 6
        assert binomial_poly(4, 2, 2) == 15
        assert binomial_poly(7, 0, -1) == 0

    def test_polynomial_matches_falling_factorial(self):
        for b in range(0, 7):
            for a in range(-8, 5):
                for t in range(-6, 9):
                    product = 1
                    for i in range(b):
                        product *= t + a - i
                    assert binomial_poly(t, a, b) == product // factorial(b)


class TestEvaluate:
    def test_two_t_plus_one_at_five(self):
        assert GotzmannPartition((1, 1)).evaluate(5) == 11

    def test_constant_one(self):
        for t in (-3, 0, 7, 100):
            assert GotzmannPartition((0,)).evaluate(t) == 1

    def test_three_t_plus_one_at_four(self):
        assert GotzmannPartition((1, 1, 1, 0)).evaluate(4) == 13

    def test_degree_and_gotzmann_number(self):
        b = GotzmannPartition((3, 1, 0))
        assert b.degree == 3
        assert b.gotzmann_number == 3


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(NotAdmissibleError):
            GotzmannPartition(())

    def test_rejects_increasing(self):
        with pytest.raises(NotAdmissibleError):
            GotzmannPartition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(NotAdmissibleError):
            GotzmannPartition((1, -1))

    def test_macaulay_rejects_zero_part(self):
        with pytest.raises(NotAdmissibleError):
            MacaulayPartition((2, 0))

    def test_macaulay_rejects_increasing(self):
        with pytest.raises(NotAdmissibleError):
            MacaulayPartition((2, 3))


class TestMacaulayConversion:
    def test_examples(self):
        assert GotzmannPartition((1, 1)).to_macaulay().parts == (2, 2)
        assert GotzmannPartition((0, 0, 0)).to_macaulay().parts == (3,)
        assert GotzmannPartition((1, 1, 1, 0)).to_macaulay().parts == (4, 3)

    def test_inverses(self):
        assert MacaulayPartition((2, 2)).to_gotzmann().parts == (1, 1)
        assert MacaulayPartition((3,)).to_gotzmann().parts == (0, 0, 0)
        assert MacaulayPartition((4, 3)).to_gotzmann().parts == (1, 1, 1, 0)

    def test_both_expressions_evaluate_equally(self):
        # the conjugate-side evaluator is a fully independent formula; the
        # two are equal as polynomials, so at negative t too
        for parts in all_partitions(6, 3):
            b = GotzmannPartition(parts)
            e = b.to_macaulay()
            for t in range(-8, 9):
                assert b.evaluate(t) == e.evaluate(t), (parts, t)

    def test_round_trip_on_grid(self):
        for parts in all_partitions(8, 4):
            b = GotzmannPartition(parts)
            assert b.to_macaulay().to_gotzmann() == b

    def test_size_guard(self):
        # the guard reads e_0 before it builds the e_0 parts
        top = MacaulayPartition((MAX_GOTZMANN_NUMBER, 1))
        assert top.to_gotzmann().gotzmann_number == MAX_GOTZMANN_NUMBER
        with pytest.raises(SearchBoundError):
            MacaulayPartition((MAX_GOTZMANN_NUMBER + 1,)).to_gotzmann()
        with pytest.raises(SearchBoundError):
            MacaulayPartition((10**100, 10**50)).to_gotzmann()

    def test_first_macaulay_part_is_gotzmann_number(self):
        for parts in all_partitions(8, 4):
            b = GotzmannPartition(parts)
            assert b.to_macaulay().parts[0] == b.gotzmann_number


class TestOperations:
    def test_increment_parts(self):
        assert GotzmannPartition((1, 1)).increment().parts == (1, 1, 0)
        assert GotzmannPartition((0,)).increment().parts == (0, 0)
        assert GotzmannPartition((2, 2)).increment().parts == (2, 2, 0)

    def test_lift_parts(self):
        assert GotzmannPartition((0, 0, 0)).lift().parts == (1, 1, 1)
        assert GotzmannPartition((0,)).lift().parts == (1,)
        assert GotzmannPartition((1, 1, 0)).lift().parts == (2, 2, 1)

    def test_difference_parts(self):
        assert GotzmannPartition((1, 1, 1, 0)).difference().parts == (0, 0, 0)
        assert GotzmannPartition((1,)).difference().parts == (0,)
        assert GotzmannPartition((2, 2, 0)).difference().parts == (1, 1)

    def test_difference_rejects_constants(self):
        with pytest.raises(NotAdmissibleError):
            GotzmannPartition((0, 0)).difference()

    def test_increment_adds_one_pointwise(self):
        for parts in all_partitions(5, 3):
            b = GotzmannPartition(parts)
            a = b.increment()
            for t in range(0, 6):
                assert a.evaluate(t) == b.evaluate(t) + 1

    def test_lift_integrates(self):
        # difference of the lift recovers the original values
        for parts in all_partitions(5, 3):
            b = GotzmannPartition(parts)
            lifted = b.lift()
            for t in range(1, 7):
                assert lifted.evaluate(t) - lifted.evaluate(t - 1) == b.evaluate(t)

    def test_difference_of_lift_is_identity(self):
        for parts in all_partitions(5, 3):
            b = GotzmannPartition(parts)
            assert b.lift().difference() == b

    def test_difference_matches_values(self):
        for parts in all_partitions(5, 3):
            b = GotzmannPartition(parts)
            if b.degree == 0:
                continue
            d = b.difference()
            for t in range(2, 8):
                assert d.evaluate(t) == b.evaluate(t) - b.evaluate(t - 1)


class TestCoordinates:
    # GotzmannPartition.coordinates sums each run of equal parts by the
    # hockey-stick identity; the reference sums one binomial per part

    def test_equals_reference_on_small_partitions(self):
        cells = 0
        for parts in partitions_up_to(10, 5):
            b = GotzmannPartition(parts)
            assert b.coordinates() == reference_coordinates(b), parts
            cells += 1
        assert cells == 8007

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=40))
    def test_equals_reference_on_long_partitions(self, parts):
        b = GotzmannPartition(tuple(sorted(parts, reverse=True)))
        assert b.coordinates() == reference_coordinates(b), b.parts


class TestPeel:
    def test_linear_example(self):
        # 2t + 1 = 2 C(t + 1, 1) - 1
        assert peel_to_partition((-1, 2)).parts == (1, 1)

    def test_constant_example(self):
        assert peel_to_partition((1,)).parts == (0,)

    def test_twisted_cubic_example(self):
        # 3t + 1 = 3 C(t + 1, 1) - 2; trailing zeros change nothing
        assert peel_to_partition((-2, 3)).parts == (1, 1, 1, 0)
        assert peel_to_partition((-2, 3, 0, 0)).parts == (1, 1, 1, 0)

    def test_round_trip_on_grid(self):
        for parts in all_partitions(8, 4):
            b = GotzmannPartition(parts)
            assert peel_to_partition(b.coordinates()) == b, parts

    def test_rejects_plain_t(self):
        # p(t) = t is not an admissible Hilbert polynomial: e_0 = 0
        with pytest.raises(NotAdmissibleError):
            peel_to_partition((-1, 1))

    def test_rejects_t_squared(self):
        with pytest.raises(NotAdmissibleError):
            peel_to_partition((1, -3, 2))

    def test_rejects_zero_samples(self):
        for tau in [(0, 0, 0), (0,), ()]:
            with pytest.raises(NotAdmissibleError):
                peel_to_partition(tau)

    def test_rejects_a_part_before_using_it(self):
        # a negative part would reach comb with a negative top, which
        # raises a bare ValueError: e_2 = -3, and e_1 = -3 below e_2 = 1
        for tau in [(0, 0, -3), (0, -4, 1)]:
            with pytest.raises(NotAdmissibleError):
                peel_to_partition(tau)

    def test_rejects_increasing_parts(self):
        # e_1 = 3, then e_0 = -4 + C(4, 2) = 2 < 3
        with pytest.raises(NotAdmissibleError, match="weakly decreasing"):
            peel_to_partition((-4, 3))
        # e = (10^6, 1, 2): refused at e_1, before e_0 meets the size guard
        with pytest.raises(NotAdmissibleError, match="weakly decreasing"):
            peel_to_partition((10**6, -2, 2))
        assert peel_to_partition((-3, 3)) == MacaulayPartition((3, 3)).to_gotzmann()

    def test_equals_reference_peel_on_any_window(self):
        # the reference peels values on windows from t = 0 on, below the
        # Gotzmann number too, where p can be negative
        for parts in all_partitions(8, 4):
            b = GotzmannPartition(parts)
            assert peel_to_partition(b.coordinates()) == b, parts
            for base in range(b.gotzmann_number + 2):
                for width in (b.degree + 2, b.degree + 3):
                    got = reference_peel(base, values(b, base, width))
                    assert got == b, (parts, base, width)

    def test_reference_peel_rejects_what_the_peel_rejects(self):
        for tau, window in INADMISSIBLE:
            assert [polynomial_value(tau, t) for t in range(len(window))] == list(
                window
            )
            with pytest.raises(NotAdmissibleError):
                peel_to_partition(tau)
            with pytest.raises(NotAdmissibleError):
                reference_peel(0, window)
        # windows with no coordinates: not a polynomial, or too short
        for base, window in [(0, (1, 2, 4, 8, 16)), (5, (7, 9))]:
            with pytest.raises(NotAdmissibleError):
                reference_peel(base, window)

    def test_size_guard_before_any_part_is_built(self, monkeypatch):
        # e_0 is the constant itself; its partition would have that many
        # parts, so the peel refuses it as it reads it
        for r in (MAX_GOTZMANN_NUMBER + 1, 10**100):
            with pytest.raises(SearchBoundError):
                peel_to_partition((r,))
        r = MAX_GOTZMANN_NUMBER
        assert peel_to_partition((r,)).gotzmann_number == r
        # a top part above the bound is refused before any binomial is
        # taken of it: e = (10^100, 10^50) has tau_1 = e_1
        tau = (10**100 - (10**50 + 1) * 10**50 // 2, 10**50)

        def forbidden(*args):
            raise AssertionError("a binomial of a part above the bound")

        monkeypatch.setattr(hilbert_poly, "comb", forbidden)
        with pytest.raises(SearchBoundError):
            peel_to_partition(tau)


class TestPartitionFromValues:
    """The values p(0), p(1), ... from t = 0 on: reference_peel, which
    reference_hilbert_polynomial uses, reads them, and the library peels
    the coordinates of the same polynomial."""

    def test_round_trip_on_grid(self):
        # values from t = 0 on, well below the Gotzmann number
        for parts in all_partitions(8, 4):
            b = GotzmannPartition(parts)
            assert reference_peel(0, values(b, 0, b.degree + 2)) == b, parts

    def test_twisted_cubic(self):
        assert reference_peel(0, [1, 4, 7]).parts == (1, 1, 1, 0)
        assert peel_to_partition((-2, 3)).parts == (1, 1, 1, 0)

    def test_rejects_inadmissible(self):
        for tau, window in INADMISSIBLE:
            with pytest.raises(NotAdmissibleError):
                reference_peel(0, window)
            with pytest.raises(NotAdmissibleError):
                peel_to_partition(tau)

    def test_window_too_short(self):
        with pytest.raises(NotAdmissibleError):
            reference_peel(0, [1, 4])


class TestConstantDifference:
    def test_constant(self):
        p = GotzmannPartition((1, 1, 0))
        q = GotzmannPartition((1, 1))
        assert constant_difference(p, q) == 1

    def test_zero(self):
        p = GotzmannPartition((2, 1))
        assert constant_difference(p, p) == 0

    def test_nonconstant_raises(self):
        with pytest.raises(ValueError):
            constant_difference(
                GotzmannPartition((1, 1)), GotzmannPartition((0,))
            )
