"""Predicates for the number of Borel-fixed points, and the scheme tree.

A Hilbert scheme is addressed by the partition of its polynomial together
with the ambient dimension n; the codimension is c = n - b_1.  Two
closed-form predicates decide from the partition alone whether the scheme
carries exactly one or exactly two Borel-fixed points, a third recognizes
the known three-point families, and verify_classification replays the
predicates against actual enumeration over a grid of schemes.

The two-point classification requires c >= 2; queries with c = 1 raise
OutOfScopeError rather than guessing.

Enumeration runs the Reeves walk in the cell's characteristic.  Only the
primes up to the Gotzmann number r can differ from characteristic 0: a
saturated ideal with Gotzmann number r is generated in degrees <= r
(Gotzmann), so for a prime p > r every exponent of a minimal generator
is below p, where digitwise_leq(k, l, p) is just k <= l, and being
p-Borel is being strongly stable.  The tests check this on small cells.

verify_classification and explore_tree read only the number of points,
so they call reeves.count_strongly_stable, which counts the last level of
the depth-first walk without making the expansions that end it, skips
every branch whose lift must overshoot the next level's target (a degree
bound on the coordinates it carries), and holds only the walk's path.
count_borel_fixed returns the set too, for `classify --verify`, which
lists the ideals.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import OutOfScopeError, SearchBoundError, Value, set_slot
from .hilbert_poly import GotzmannPartition
from .monomial_ideal import MonomialIdeal
from .borel import CHAR0, Characteristic
from .reeves import count_strongly_stable, enumerate_strongly_stable
from .exhaustive import DEFAULT_MAX_AMBIENT, DEFAULT_MAX_GOTZMANN

# the primes default_grid adds wherever the exhaustive search runs unforced
ORACLE_CHARS = (2, 3)

# explore_tree's depth cap: a tree of depth D has 2^(D+1) - 1 nodes, and
# its memory grows about 4x per two levels (a tracemalloc peak of 0.9 /
# 3.5 MB at depth 10 / 12, codimension 2).  On a 2-vCPU VM, depth 12 at
# codimension 2 takes 0.11 s and 19 MB peak RSS, 1.0-1.5 s with
# enumerated counts, and 2.7 s at codimension 4 in characteristic 2 with
# counts; depth 20 would take about a gigabyte.
MAX_TREE_DEPTH = 12

# explore_tree's bound on an enumerated tree: its nodes times the
# variables of its deepest ring, (2^(D+1) - 1)(codim + D + 1) at depth D.
# Every node runs a walk, and the time grows about linearly in this
# product.  Per process on a 2-vCPU VM (`tree --enumerate --json`):
#   codim 190, depth 8      101 689   0.6 s
#   codim 2, depth 12       122 865   1.1 s
#   codim 4, depth 12, p=2  139 247   2.5 s
#   codim 22, depth 12      286 685   2.2 s (p=3: 2.9 s, p=2: 4.4 s)
#   codim 187, depth 10     405 306   2.9 s
#   codim 60, depth 12      597 943   4.4 s
#   codim 187, depth 12   1 638 200  19.2 s, inside the depth cap and
#                                    the CLI's 200 variables
# The bound keeps a run below about 3 s in characteristic 0 and 5 s in
# characteristic 2, with a peak RSS below 50 MB.
MAX_TREE_WORK = 300_000


class SchemeCoordinates(Value):
    """One Hilbert scheme: polynomial partition, ambient dimension, char."""

    __slots__ = ("partition", "n", "char")

    def __init__(self, partition: GotzmannPartition, n: int, char: Characteristic = CHAR0):
        if n <= partition.degree:
            raise ValueError(
                "ambient dimension must exceed the polynomial degree"
            )
        set_slot(self, "partition", partition)
        set_slot(self, "n", n)
        set_slot(self, "char", char)

    @property
    def codim(self) -> int:
        return self.n - self.partition.degree


class ClassificationVerdict(Value):
    __slots__ = ("predicted_count", "matched_clause")

    def __init__(self, predicted_count: int | str, matched_clause: str | None):
        set_slot(self, "predicted_count", predicted_count)
        set_slot(self, "matched_clause", matched_clause)


def _leading_run(parts: tuple[int, ...]) -> int:
    s = 1
    while s < len(parts) and parts[s] == parts[0]:
        s += 1
    return s


def unique_point_clause(coords: SchemeCoordinates) -> str | None:
    """Clause label when the scheme has a unique Borel-fixed point, else None.

    (i)   b_r > 0;
    (ii)  c >= 2 and r <= 2;
    (iii) c = 1 and b_1 = b_r;
    (iv)  c = 1 and r - s <= 2, s the leading run length.
    """
    b = coords.partition.parts
    r = len(b)
    c = coords.codim
    if b[-1] > 0:
        return "(i)"
    if c >= 2 and r <= 2:
        return "(ii)"
    if c == 1 and b[0] == b[-1]:
        return "(iii)"
    if c == 1 and r - _leading_run(b) <= 2:
        return "(iv)"
    return None


def predicate_unique(coords: SchemeCoordinates) -> bool:
    return unique_point_clause(coords) is not None


def two_point_clause(coords: SchemeCoordinates) -> str | None:
    """Clause label when the scheme has exactly two Borel-fixed points.

    Requires codimension >= 2.  The only characteristic-sensitive clause is
    (i)(a'), which applies away from characteristic 2.
    """
    if coords.codim <= 1:
        raise OutOfScopeError("out of scope: c <= 1")
    b = coords.partition.parts
    r = len(b)
    s = _leading_run(b)
    if b[-1] != 0:
        return None
    if b[0] == 0:
        if r == 3:
            return "(i)(a)"
        if r == 4 and coords.n == 2 and coords.char.value != 2:
            return "(i)(a')"
        return None
    # now b_1 > 0 = b_r, so 1 <= s <= r - 1
    if s == r - 1:
        if b[0] == 1 and r - 1 not in (1, 3):
            return "(i)(b)"
        if b[0] >= 2 and r - 1 != 1:
            return "(i)(c)"
        return None
    if s == r - 2:
        second = b[r - 2]
        if second == 0:
            return "(ii)(a)" if r == 3 else None
        if second == 1 and r - 2 != 2:
            return "(ii)(b)"
        if second >= 2:
            return "(ii)(c)"
    return None


def predicate_two(coords: SchemeCoordinates) -> bool:
    return two_point_clause(coords) is not None


def in_three_point_family(coords: SchemeCoordinates) -> bool:
    """The proved three-point families: (d, d, 1, 0) with d > 1, and (1, 1, 1, 0)."""
    if coords.codim <= 1:
        raise OutOfScopeError("out of scope: c <= 1")
    b = coords.partition.parts
    if b == (1, 1, 1, 0):
        return True
    return len(b) == 4 and b[0] > 1 and b[0] == b[1] and b[2] == 1 and b[3] == 0


def predict(coords: SchemeCoordinates) -> ClassificationVerdict:
    """Predicted Borel-fixed point count from the closed-form predicates.

    The unique-point criterion covers every codimension; beyond it, the
    two- and three-point criteria need codimension at least 2, so other
    codimension-1 schemes come back explicitly out of scope.
    """
    clause = unique_point_clause(coords)
    if clause is not None:
        return ClassificationVerdict(1, clause)
    if coords.codim <= 1:
        return ClassificationVerdict("out of scope (c=1)", None)
    clause = two_point_clause(coords)
    if clause is not None:
        return ClassificationVerdict(2, clause)
    if in_three_point_family(coords):
        return ClassificationVerdict(3, "three-point family")
    return ClassificationVerdict(">=3/unknown", None)


def count_borel_fixed(coords: SchemeCoordinates) -> tuple[int, frozenset[MonomialIdeal]]:
    """Enumerated count and ideal set, by the Reeves walk in the cell's
    characteristic: the saturated strongly stable ideals in characteristic
    0, the saturated p-Borel ones in characteristic p.  The walk has no
    size guard; the exhaustive search (exhaustive.enumerate_borel_fixed)
    stays the independent engine it is checked against.  Callers that
    need only the count (verify_classification, explore_tree) call
    reeves.count_strongly_stable instead, which counts the expansions
    that end the last level without making them and keeps no ideal it
    has counted; this one is for callers that read the ideals."""
    ideals = enumerate_strongly_stable(coords.partition, coords.n, coords.char)
    return len(ideals), ideals


class VerificationReport(Value):
    """The one mutable value: verify_classification appends to its lists
    in place.  A fresh report has empty lists of its own."""

    __slots__ = ("cells", "discrepancies")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, cells: list[dict] | None = None, discrepancies: list[dict] | None = None):
        self.cells = [] if cells is None else cells
        self.discrepancies = [] if discrepancies is None else discrepancies

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_json_dict(self) -> dict:
        return {
            "checked": len(self.cells),
            "discrepancies": self.discrepancies,
            "ok": self.ok,
            "cells": self.cells,
        }


def partitions_up_to(max_length: int, max_part: int):
    """All weakly decreasing nonneg tuples with the given bounds, shortest
    first, each length in decreasing lexicographic order."""
    for r in range(1, max_length + 1):
        yield from combinations_with_replacement(range(max_part, -1, -1), r)


def default_grid(
    max_gotzmann: int = 6,
    max_degree: int = 3,
    codims: tuple[int, ...] = (2, 3),
) -> list[SchemeCoordinates]:
    """The standard verification grid: characteristic 0 on every cell, plus
    each of ORACLE_CHARS wherever the exhaustive search runs within its
    default bound."""
    cells = []
    for parts in partitions_up_to(max_gotzmann, max_degree):
        partition = GotzmannPartition(parts)
        for c in codims:
            n = c + partition.degree
            cells.append(SchemeCoordinates(partition, n))
            if (
                n <= DEFAULT_MAX_AMBIENT
                and partition.gotzmann_number <= DEFAULT_MAX_GOTZMANN
            ):
                for p in ORACLE_CHARS:
                    cells.append(
                        SchemeCoordinates(partition, n, Characteristic(p))
                    )
    return cells


def verify_classification(grid) -> VerificationReport:
    """Replay the predicates against enumeration on every grid cell.

    For each cell checks (count == 1) iff predicate_unique, (count == 2)
    iff predicate_two (codimension >= 2), and three-point family implies
    count == 3.  The three predicates never hold together, so predict,
    which tries them in that order, names the one that holds, and each
    is evaluated once.  Discrepancies are collected, not raised.
    """
    report = VerificationReport()
    for coords in grid:
        count = count_strongly_stable(coords.partition, coords.n, coords.char)
        verdict = predict(coords)
        predicted = verdict.predicted_count
        problems = []
        if (count == 1) != (predicted == 1):
            problems.append("unique-point predicate mismatch")
        if coords.codim >= 2 and (count == 2) != (predicted == 2):
            problems.append("two-point predicate mismatch")
        if predicted == 3 and count != 3:
            problems.append("three-point family count mismatch")
        cell = {
            "partition": list(coords.partition.parts),
            "n": coords.n,
            "char": coords.char.value,
            "clause": verdict.matched_clause,
            "predicted": predicted,
            "verified": count,
        }
        report.cells.append(cell)
        if problems:
            report.discrepancies.append({**cell, "problems": problems})
    return report


class TreeNode(Value):
    __slots__ = ("coords", "predicted_count", "matched_clause", "verified_count", "children")

    def __init__(
        self,
        coords: SchemeCoordinates,
        predicted_count: int | str,
        matched_clause: str | None,
        verified_count: int | None,
        children: tuple["TreeNode", ...],
    ):
        set_slot(self, "coords", coords)
        set_slot(self, "predicted_count", predicted_count)
        set_slot(self, "matched_clause", matched_clause)
        set_slot(self, "verified_count", verified_count)
        set_slot(self, "children", children)


def tree_children(
    coords: SchemeCoordinates,
) -> tuple[SchemeCoordinates, SchemeCoordinates]:
    """The two child schemes: polynomial + 1 in the same space, and the
    lifted polynomial in one more dimension."""
    return (
        SchemeCoordinates(coords.partition.increment(), coords.n, coords.char),
        SchemeCoordinates(coords.partition.lift(), coords.n + 1, coords.char),
    )


def _annotate(coords: SchemeCoordinates, enumerate_counts: bool) -> tuple:
    verdict = predict(coords)
    verified = (
        count_strongly_stable(coords.partition, coords.n, coords.char)
        if enumerate_counts
        else None
    )
    return verdict.predicted_count, verdict.matched_clause, verified


def explore_tree(
    codim: int,
    depth: int,
    enumerate_counts: bool = False,
    char: Characteristic = CHAR0,
) -> TreeNode:
    """Depth-bounded subtree of the scheme tree rooted at projective space
    of the given codimension, annotated with predicted (and optionally
    enumerated) Borel-fixed point counts.  A depth above MAX_TREE_DEPTH,
    or enumerated counts on a tree whose nodes times the variables of its
    deepest ring exceed MAX_TREE_WORK, raise SearchBoundError, the
    feasibility guards."""
    if codim < 1:
        raise ValueError("codimension must be positive")
    if depth > MAX_TREE_DEPTH:
        raise SearchBoundError(f"depth {depth} exceeds the cap {MAX_TREE_DEPTH}")
    if enumerate_counts:
        nodes, num_vars = 2 ** (depth + 1) - 1, codim + depth + 1
        if nodes * num_vars > MAX_TREE_WORK:
            raise SearchBoundError(
                f"size bound exceeded: {nodes} nodes times {num_vars} variables, "
                f"above {MAX_TREE_WORK}"
            )

    def build(coords: SchemeCoordinates, remaining: int) -> TreeNode:
        predicted, clause, verified = _annotate(coords, enumerate_counts)
        children = ()
        if remaining > 0:
            left, right = tree_children(coords)
            children = (build(left, remaining - 1), build(right, remaining - 1))
        return TreeNode(coords, predicted, clause, verified, children)

    root = SchemeCoordinates(GotzmannPartition((0,)), codim, char)
    return build(root, depth)
