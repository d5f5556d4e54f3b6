import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from borelpoints import (
    CHAR0,
    Characteristic,
    GotzmannPartition,
    MonomialIdeal,
    borel_closure,
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
from borelpoints.borel import _expand, _expandable, exchange

from conftest import (
    ideal,
    mini_grid,
    reference_borel_closure,
    reference_expand,
    reference_expandable,
    saturated_strongly_stable,
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
    """Reference for _expand: the same generator list, minimalized from
    scratch by from_generators."""
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
                    assert _expand(I, g) == expand_from_scratch(I, g), (
                        str(I),
                        g,
                    )

    @settings(max_examples=200, deadline=None)
    @given(saturated_strongly_stable())
    def test_matches_from_generators_on_closures(self, I):
        for g in expandable_generators(I):
            E = _expand(I, g)
            assert E == expand_from_scratch(I, g)
            assert is_strongly_stable(E)
            assert E.saturate() == E


def walk_visits(monkeypatch, runs):
    """Every ideal the Reeves walk passes to _expandable or gets back from
    _expand while running each of runs."""
    seen = set()

    def expandable(I):
        seen.add(I)
        return _expandable(I)

    def expand(I, g):
        J = _expand(I, g)
        seen.add(J)
        return J

    with monkeypatch.context() as m:
        m.setattr(reeves, "_expandable", expandable)
        m.setattr(reeves, "_expand", expand)
        for partition, n in runs:
            enumerate_strongly_stable(partition, n)
    return seen


def assert_helpers_match_reference(I):
    gens = _expandable(I)
    assert gens == reference_expandable(I), str(I)
    for g in gens:
        assert _expand(I, g) == reference_expand(I, g), (str(I), g)


class TestAgainstReferenceHelpers:
    # _expandable and _expand against the definition-by-any and the
    # insort-by-canonical_key forms kept in conftest

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
        assert g in _expandable(I)
        assert _expand(I, g).gens == tuple(expected)
        assert_helpers_match_reference(I)


def assert_same_as_validated(J):
    """J, built without checks, equals the checked construction of its
    own generators, hashes alike, and is valid."""
    checked = MonomialIdeal(J.num_vars, J.gens)
    assert J == checked and hash(J) == hash(checked)
    assert type(J) is MonomialIdeal
    assert MonomialIdeal.from_generators(J.gens, J.num_vars) == J


class TestTrustedConstruction:
    # _expand and lift() skip the generator checks of MonomialIdeal

    def test_walk_outputs(self):
        for partition, n in mini_grid():
            for I in enumerate_strongly_stable(partition, n):
                assert_same_as_validated(I.lift())
                for g in expandable_generators(I):
                    assert_same_as_validated(_expand(I, g))

    @settings(max_examples=100, deadline=None)
    @given(saturated_strongly_stable())
    def test_closures(self, I):
        assert_same_as_validated(I.lift())
        for g in expandable_generators(I):
            assert_same_as_validated(_expand(I, g))

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

    def test_library_has_no_assert(self):
        # python -O strips asserts, so no check may live in one
        package = Path(reeves.__file__).parent
        modules = sorted(package.rglob("*.py"))
        assert modules
        for path in modules:
            tree = ast.parse(path.read_text())
            lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
            assert not lines, f"{path.name}: assert at lines {lines}"

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
        assert cached == {"monomial_ideal._numerator"}
