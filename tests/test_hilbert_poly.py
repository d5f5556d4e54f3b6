from math import factorial

import pytest

from borelpoints import (
    GotzmannPartition,
    MacaulayPartition,
    NotAdmissibleError,
    SampledPolynomial,
    binomial,
    binomial_poly,
    peel_to_partition,
)

from borelpoints.hilbert_poly import partition_from_values

from conftest import all_partitions, constant_difference


def sample(partition, base, width):
    return SampledPolynomial(
        base, tuple(partition.evaluate(t) for t in range(base, base + width))
    )


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
        # the conjugate-side evaluator is a fully independent formula
        for parts in all_partitions(6, 3):
            b = GotzmannPartition(parts)
            e = b.to_macaulay()
            for t in range(0, 6):
                assert b.evaluate(t) == e.evaluate(t), (parts, t)

    def test_round_trip_on_grid(self):
        for parts in all_partitions(8, 4):
            b = GotzmannPartition(parts)
            assert b.to_macaulay().to_gotzmann() == b

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


class TestPeel:
    def test_linear_example(self):
        s = SampledPolynomial(5, tuple(2 * t + 1 for t in range(5, 9)))
        assert peel_to_partition(s).parts == (1, 1)

    def test_constant_example(self):
        s = SampledPolynomial(5, (1, 1))
        assert peel_to_partition(s).parts == (0,)

    def test_twisted_cubic_example(self):
        s = SampledPolynomial(6, tuple(3 * t + 1 for t in range(6, 10)))
        assert peel_to_partition(s).parts == (1, 1, 1, 0)

    def test_round_trip_on_grid(self):
        for parts in all_partitions(8, 4):
            b = GotzmannPartition(parts)
            base = b.gotzmann_number
            width = b.degree + 3
            assert peel_to_partition(sample(b, base, width)) == b, parts

    def test_rejects_plain_t(self):
        # p(t) = t is not an admissible Hilbert polynomial
        s = SampledPolynomial(5, (5, 6, 7, 8))
        with pytest.raises(NotAdmissibleError):
            peel_to_partition(s)

    def test_rejects_t_squared(self):
        s = SampledPolynomial(4, tuple(t * t for t in range(4, 9)))
        with pytest.raises(NotAdmissibleError):
            peel_to_partition(s)

    def test_rejects_non_polynomial_window(self):
        s = SampledPolynomial(0, (1, 2, 4, 8, 16))
        with pytest.raises(NotAdmissibleError):
            peel_to_partition(s)

    def test_rejects_zero_samples(self):
        s = SampledPolynomial(3, (0, 0, 0))
        with pytest.raises(NotAdmissibleError):
            peel_to_partition(s)

    def test_iteration_cap(self):
        s = SampledPolynomial(5, (10, 10, 10))
        with pytest.raises(NotAdmissibleError):
            peel_to_partition(s, max_parts=3)

    def test_window_degree(self):
        assert SampledPolynomial(0, (7, 7, 7)).degree() == 0
        assert SampledPolynomial(2, (5, 7, 9, 11)).degree() == 1
        assert SampledPolynomial(0, (0, 0)).degree() == -1

    def test_window_too_short(self):
        with pytest.raises(NotAdmissibleError):
            SampledPolynomial(5, (7,)).degree()
        with pytest.raises(NotAdmissibleError):
            SampledPolynomial(5, (7, 9)).degree()  # linear needs 3 points


class TestPartitionFromValues:
    def test_round_trip_on_grid(self):
        # values from t = 0 on, well below the Gotzmann number
        for parts in all_partitions(8, 4):
            b = GotzmannPartition(parts)
            values = [b.evaluate(t) for t in range(b.degree + 2)]
            assert partition_from_values(values) == b, parts

    def test_twisted_cubic(self):
        assert partition_from_values([1, 4, 7]).parts == (1, 1, 1, 0)

    def test_rejects_inadmissible(self):
        for values in ([0, 1, 2], [0, 1, 4, 9], [-1, -1], [0, 0, 0]):
            with pytest.raises(NotAdmissibleError):
                partition_from_values(values)

    def test_window_too_short(self):
        with pytest.raises(NotAdmissibleError):
            partition_from_values([1, 4])


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
