"""Acceptance suite.

Each test prints one PASS/FAIL line (visible with pytest -s or -rA) and
enforces the stated exact counts and runtime budgets.  The heavyweight
enumeration sweep is computed once and shared.
"""

import time

import pytest

from borelpoints import (
    CHAR0,
    Characteristic,
    GotzmannPartition,
    SchemeCoordinates,
    binomial_poly,
    count_strongly_stable,
    enumerate_borel_fixed,
    enumerate_strongly_stable,
    expand,
    expandable_generators,
    in_three_point_family,
    is_borel_fixed,
    lex_ideal,
    peel_to_partition,
    predicate_two,
    predicate_unique,
)

from conftest import all_partitions, constant_difference, from_macaulay

P2, P3, P5, P7 = (Characteristic(p) for p in (2, 3, 5, 7))

SWEEP_MAX_R = 6
SWEEP_MAX_DEG = 3
SWEEP_CODIMS = (2, 3)
ORACLE_MAX_N = 3
ORACLE_MAX_R = 5


def report(number, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" {detail}" if detail else ""
    print(
        f"ACCEPTANCE {number} {name}: {status} "
        f"({elapsed:.1f}s / budget {budget:.0f}s){extra}"
    )
    assert ok, f"criterion {number}: {name}{extra}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def sweep():
    """Reeves enumeration over the full classification grid, timed."""
    t0 = time.perf_counter()
    outputs = {}
    for parts in all_partitions(SWEEP_MAX_R, SWEEP_MAX_DEG):
        partition = GotzmannPartition(parts)
        for c in SWEEP_CODIMS:
            n = c + partition.degree
            outputs[(parts, n)] = enumerate_strongly_stable(partition, n)
    return outputs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def family_runs():
    """Enumerations for the fixed families of criteria 1, 2, and 4."""
    t0 = time.perf_counter()
    twisted = GotzmannPartition((1, 1, 1, 0))
    quadruple = GotzmannPartition((0, 0, 0, 0))
    runs = {
        "twisted_reeves": enumerate_strongly_stable(twisted, 3),
        "twisted_oracle": {
            p.value: enumerate_borel_fixed(twisted, 3, p) for p in (P2, P3)
        },
        "quadruple_reeves": enumerate_strongly_stable(quadruple, 2),
        "quadruple_oracle": {
            p.value: enumerate_borel_fixed(quadruple, 2, p) for p in (P2, P3, P5)
        },
        "three_family": {
            d: enumerate_strongly_stable(GotzmannPartition((d, d, 1, 0)), d + 2)
            for d in (2, 3)
        },
    }
    return runs, time.perf_counter() - t0


def test_criterion_1_twisted_family(family_runs):
    runs, _ = family_runs
    t0 = time.perf_counter()
    reeves_set = runs["twisted_reeves"]
    ok = len(reeves_set) == 3
    for p in (2, 3):
        ok = ok and runs["twisted_oracle"][p] == reeves_set
    report(
        1,
        "twisted family (1,1,1,0) n=3 has 3 points in char 0, 2, 3",
        ok,
        time.perf_counter() - t0 + _shared(family_runs),
        10.0,
        detail=f"count={len(reeves_set)}",
    )


def test_criterion_2_characteristic_two_exception(family_runs):
    runs, _ = family_runs
    t0 = time.perf_counter()
    reeves_set = runs["quadruple_reeves"]
    char2 = runs["quadruple_oracle"][2]
    nonstandard = next(iter(char2 - reeves_set), None)
    ok = (
        len(reeves_set) == 2
        and len(char2) == 3
        and nonstandard is not None
        and str(nonstandard) == "<x0^2, x1^2>"
        and runs["quadruple_oracle"][3] == reeves_set
        and runs["quadruple_oracle"][5] == reeves_set
    )
    report(
        2,
        "char-2 exception for (0,0,0,0) n=2",
        ok,
        time.perf_counter() - t0 + _shared(family_runs),
        10.0,
        detail=f"char2={len(char2)}, char3={len(runs['quadruple_oracle'][3])}",
    )


_SHARED_CHARGED = set()


def _shared(fixture_value):
    # charge each shared fixture's cost to the first criterion that uses it
    key = id(fixture_value)
    if key in _SHARED_CHARGED:
        return 0.0
    _SHARED_CHARGED.add(key)
    return fixture_value[1]


def test_criterion_3_classification_sweep(sweep):
    outputs, elapsed = sweep
    t0 = time.perf_counter()
    discrepancies = []
    for (parts, n), ideals in outputs.items():
        coords = SchemeCoordinates(GotzmannPartition(parts), n)
        count = len(ideals)
        if (count == 1) != predicate_unique(coords):
            discrepancies.append(("unique", parts, n, count))
        if (count == 2) != predicate_two(coords):
            discrepancies.append(("two", parts, n, count))
    report(
        3,
        "classification sweep r<=6 b1<=3 c in {2,3} (char 0)",
        not discrepancies,
        elapsed + (time.perf_counter() - t0),
        300.0,
        detail=f"cells={len(outputs)}, discrepancies={discrepancies[:3]}",
    )


def test_criterion_4_three_point_family(family_runs):
    runs, _ = family_runs
    t0 = time.perf_counter()
    counts = {d: len(runs["three_family"][d]) for d in (2, 3)}
    ok = counts == {2: 3, 3: 3}
    for d in (2, 3):
        coords = SchemeCoordinates(GotzmannPartition((d, d, 1, 0)), d + 2)
        ok = ok and in_three_point_family(coords)
    report(
        4,
        "three-point family (d,d,1,0) n=d+2 for d in {2,3}",
        ok,
        time.perf_counter() - t0 + _shared(family_runs),
        60.0,
        detail=f"counts={counts}",
    )


def test_criterion_5_property_suites(sweep):
    outputs, _ = sweep
    t0 = time.perf_counter()
    failures = []

    # partition calculus round trips and conjugacy on the large grid
    for parts in all_partitions(8, 4):
        b = GotzmannPartition(parts)
        tau = b.coordinates()
        if peel_to_partition(tau) != b:
            failures.append(("peel", parts))
        base, width = b.gotzmann_number, b.degree + 3
        for t in range(base, base + width):
            value = sum(x * binomial_poly(t, m, m) for m, x in enumerate(tau))
            if value != b.evaluate(t):
                failures.append(("coordinates", parts, t))
        e = b.to_macaulay()
        if from_macaulay(e) != b or e.parts[0] != b.gotzmann_number:
            failures.append(("conjugacy", parts))

    # lex ideals: Hilbert polynomial identity and both compatibilities
    for parts in all_partitions(SWEEP_MAX_R, SWEEP_MAX_DEG):
        b = GotzmannPartition(parts)
        for extra in (1, 2, 3):
            n = b.degree + extra
            L = lex_ideal(b, n)
            if L.hilbert_polynomial().polynomial != b:
                failures.append(("lex-hp", parts, n))
            if expand(L, L.gens[-1]) != lex_ideal(b.increment(), n):
                failures.append(("lex-increment", parts, n))
            if L.lift() != lex_ideal(b.lift(), n + 1):
                failures.append(("lex-lift", parts, n))

    # recursion identities on every sweep ideal
    for (parts, n), ideals in outputs.items():
        b = GotzmannPartition(parts)
        for I in ideals:
            if b.degree >= 1:
                got = I.difference().hilbert_polynomial().polynomial
                if got != b.difference():
                    failures.append(("difference-hp", parts, n, str(I)))
            elif not I.difference().hilbert_polynomial().is_zero_polynomial:
                failures.append(("difference-zero", parts, n, str(I)))
            lifted = I.lift()
            overshoot = constant_difference(
                lifted.hilbert_polynomial().polynomial, b.lift()
            )
            if overshoot < 0:
                failures.append(("lift-overshoot", parts, n, str(I)))
            if lifted.difference() != I:
                failures.append(("lift-difference", parts, n, str(I)))
            for g in expandable_generators(I):
                if expand(I, g).hilbert_polynomial().polynomial != b.increment():
                    failures.append(("expansion-hp", parts, n, str(I)))

    # the exhaustive search agrees with the expansion walk in char 0
    oracle_cells = 0
    for (parts, n), ideals in outputs.items():
        if n <= ORACLE_MAX_N and len(parts) <= ORACLE_MAX_R:
            oracle_cells += 1
            if enumerate_borel_fixed(GotzmannPartition(parts), n, CHAR0) != ideals:
                failures.append(("oracle-equivalence", parts, n))

    # strongly stable ideals stay fixed at every small prime
    for (parts, n), ideals in outputs.items():
        for I in ideals:
            for ch in (P2, P3, P5, P7):
                if not is_borel_fixed(I, ch):
                    failures.append(("prime-stability", parts, n, str(I), ch.value))

    total = sum(len(v) for v in outputs.values())
    report(
        5,
        "property suites (partitions, lex, recursion identities, oracle, primes)",
        not failures,
        time.perf_counter() - t0,
        600.0,
        detail=f"ideals={total}, oracle_cells={oracle_cells}, failures={failures[:3]}",
    )


def test_criterion_6_generation_degree_bound(sweep, family_runs):
    outputs, _ = sweep
    runs, _ = family_runs
    t0 = time.perf_counter()
    violations = []

    def check(ideals, parts):
        r = len(parts)
        for I in ideals:
            if I.max_generator_degree > r:
                violations.append((parts, str(I)))

    for (parts, n), ideals in outputs.items():
        check(ideals, parts)
    check(runs["twisted_reeves"], (1, 1, 1, 0))
    for s in runs["twisted_oracle"].values():
        check(s, (1, 1, 1, 0))
    check(runs["quadruple_reeves"], (0, 0, 0, 0))
    for s in runs["quadruple_oracle"].values():
        check(s, (0, 0, 0, 0))
    for d, s in runs["three_family"].items():
        check(s, (d, d, 1, 0))
    report(
        6,
        "generation degrees bounded by the Gotzmann number",
        not violations,
        time.perf_counter() - t0,
        60.0,
        detail=f"violations={violations[:3]}",
    )


def test_criterion_7_forced_oracle_characteristic_two():
    # the r = 6, n <= 3 cells of the sweep lie just past the search guard
    cells = []
    for parts in all_partitions(SWEEP_MAX_R, SWEEP_MAX_DEG):
        for c in SWEEP_CODIMS:
            n = c + parts[0]
            if len(parts) == SWEEP_MAX_R and n <= ORACLE_MAX_N:
                cells.append((parts, n))
    t0 = time.perf_counter()
    failures = []
    found = 0
    for parts, n in cells:
        partition = GotzmannPartition(parts)
        oracle = enumerate_borel_fixed(partition, n, P2, force=True)
        found += len(oracle)
        for I in oracle:
            if I.saturate() != I:
                failures.append(("unsaturated", parts, n, str(I)))
            if not is_borel_fixed(I, P2):
                failures.append(("not-borel-fixed", parts, n, str(I)))
            if I.hilbert_polynomial().polynomial != partition:
                failures.append(("hilbert-polynomial", parts, n, str(I)))
        if not enumerate_strongly_stable(partition, n) <= oracle:
            failures.append(("reeves-not-subset", parts, n))
    report(
        7,
        "forced oracle r=6 n<=3 at p=2 (saturated, 2-Borel, Reeves subset)",
        len(cells) == 8 and not failures,
        time.perf_counter() - t0,
        120.0,
        detail=f"cells={len(cells)}, ideals={found}, failures={failures[:3]}",
    )


def primes_up_to(r):
    return [p for p in range(2, r + 1) if all(p % q for q in range(2, p))]


def test_criterion_8_every_prime_up_to_the_gotzmann_number(sweep):
    # a prime p > r gives the char-0 set (the classify docstring), so the
    # criterion-3 cells at 0 and at each prime p <= r cover every
    # characteristic
    outputs, _ = sweep
    t0 = time.perf_counter()
    failures = []
    cells = nonstandard = 0
    for (parts, n), reeves_set in outputs.items():
        partition = GotzmannPartition(parts)
        for p in primes_up_to(len(parts)):
            ch = Characteristic(p)
            coords = SchemeCoordinates(partition, n, ch)
            walk = enumerate_strongly_stable(partition, n, ch)
            count = len(walk)
            cells += 1
            nonstandard += walk != reeves_set
            if (count == 1) != predicate_unique(coords):
                failures.append(("unique", parts, n, p, count))
            if (count == 2) != predicate_two(coords):
                failures.append(("two", parts, n, p, count))
            if in_three_point_family(coords) and count != 3:
                failures.append(("three", parts, n, p, count))
            if not reeves_set <= walk:
                failures.append(("reeves-not-subset", parts, n, p))
            for I in walk:
                if I.saturate() != I:
                    failures.append(("unsaturated", parts, n, p, str(I)))
                if not is_borel_fixed(I, ch):
                    failures.append(("not-borel-fixed", parts, n, p, str(I)))
                if I.hilbert_polynomial().polynomial != partition:
                    failures.append(("hilbert-polynomial", parts, n, p, str(I)))
    report(
        8,
        "classification sweep at every prime p <= r (walk in char p)",
        cells > 0 and not failures,
        time.perf_counter() - t0,
        60.0,
        detail=f"cells={cells}, nonstandard={nonstandard}, failures={failures[:3]}",
    )


@pytest.mark.parametrize(
    "k, p, count, budget",
    # one count took 0.24 s at 30 points and 0.13 s at 24 points with
    # p = 2 (2-vCPU VM, fastest of 3 in a fresh process); the budgets
    # leave about twentyfold for slower machines
    [(30, 0, 21_865, 5.0), (24, 2, 9_489, 3.0)],
    ids=["30 points", "24 points, p=2"],
)
def test_criterion_9_deep_counts_in_p4(k, p, count, budget):
    # deep walks, in which the count keeps one blocker list per
    # generator key (reeves.BLOCKER_LISTS_FROM)
    partition = GotzmannPartition((0,) * k)
    t0 = time.perf_counter()
    found = count_strongly_stable(partition, 4, Characteristic(p))
    report(
        9,
        f"count of {k} points in P^4 at p={p}",
        found == count,
        time.perf_counter() - t0,
        budget,
        detail=f"count={found}, expected={count}",
    )
