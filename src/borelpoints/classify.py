"""Predicates for the number of Borel-fixed points, and the scheme tree.

A Hilbert scheme is addressed by the partition of its polynomial together
with the ambient dimension n; the codimension is c = n - b_1.  Two
closed-form predicates decide from the partition alone whether the scheme
carries exactly one or exactly two Borel-fixed points, a third recognizes
the known three-point families, and verify_classification replays the
predicates against actual enumeration over a grid of schemes.

The two-point classification requires c >= 2; queries with c = 1 raise
OutOfScopeError rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import OutOfScopeError
from .hilbert_poly import GotzmannPartition
from .monomial_ideal import MonomialIdeal
from .borel import CHAR0, Characteristic
from .reeves import enumerate_strongly_stable
from .exhaustive import DEFAULT_MAX_AMBIENT, DEFAULT_MAX_GOTZMANN, enumerate_borel_fixed

# the primes default_grid adds wherever the exhaustive search runs unforced
ORACLE_CHARS = (2, 3)


@dataclass(frozen=True)
class SchemeCoordinates:
    """One Hilbert scheme: polynomial partition, ambient dimension, char."""

    partition: GotzmannPartition
    n: int
    char: Characteristic = CHAR0

    def __post_init__(self):
        if self.n <= self.partition.degree:
            raise ValueError(
                "ambient dimension must exceed the polynomial degree"
            )

    @property
    def codim(self) -> int:
        return self.n - self.partition.degree


@dataclass(frozen=True)
class ClassificationVerdict:
    predicted_count: int | str
    matched_clause: str | None


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
    """Enumerated count and ideal set: the Reeves walk in characteristic 0,
    the exhaustive search (guarded, see exhaustive) in characteristic p."""
    if coords.char.is_zero:
        ideals = enumerate_strongly_stable(coords.partition, coords.n)
    else:
        ideals = enumerate_borel_fixed(coords.partition, coords.n, coords.char)
    return len(ideals), ideals


@dataclass
class VerificationReport:
    cells: list[dict] = field(default_factory=list)
    discrepancies: list[dict] = field(default_factory=list)

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
    """All weakly decreasing nonneg tuples with the given bounds, shortest first."""
    for r in range(1, max_length + 1):
        for first in range(max_part, -1, -1):
            yield from _extend((first,), r)


def _extend(prefix: tuple[int, ...], length: int):
    if len(prefix) == length:
        yield prefix
        return
    for nxt in range(prefix[-1], -1, -1):
        yield from _extend(prefix + (nxt,), length)


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
    iff predicate_two, and three-point family implies count == 3.
    Discrepancies are collected, not raised.
    """
    report = VerificationReport()
    for coords in grid:
        count, _ = count_borel_fixed(coords)
        unique = predicate_unique(coords)
        in_scope = coords.codim >= 2
        two = predicate_two(coords) if in_scope else False
        three = in_three_point_family(coords) if in_scope else False
        problems = []
        if (count == 1) != unique:
            problems.append("unique-point predicate mismatch")
        if in_scope and (count == 2) != two:
            problems.append("two-point predicate mismatch")
        if three and count != 3:
            problems.append("three-point family count mismatch")
        verdict = predict(coords)
        cell = {
            "partition": list(coords.partition.parts),
            "n": coords.n,
            "char": coords.char.value,
            "clause": verdict.matched_clause,
            "predicted": verdict.predicted_count,
            "verified": count,
        }
        report.cells.append(cell)
        if problems:
            report.discrepancies.append({**cell, "problems": problems})
    return report


@dataclass(frozen=True)
class TreeNode:
    coords: SchemeCoordinates
    predicted_count: int | str
    matched_clause: str | None
    verified_count: int | None
    children: tuple["TreeNode", ...]


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
    verified = None
    if enumerate_counts and coords.char.is_zero:
        verified = len(enumerate_strongly_stable(coords.partition, coords.n))
    return verdict.predicted_count, verdict.matched_clause, verified


def explore_tree(
    codim: int,
    depth: int,
    enumerate_counts: bool = False,
    max_depth: int = 8,
    char: Characteristic = CHAR0,
) -> TreeNode:
    """Depth-bounded subtree of the scheme tree rooted at projective space
    of the given codimension, annotated with predicted (and optionally
    enumerated) Borel-fixed point counts."""
    if codim < 1:
        raise ValueError("codimension must be positive")
    if depth > max_depth:
        raise ValueError(f"depth {depth} exceeds the cap {max_depth}")

    def build(coords: SchemeCoordinates, remaining: int) -> TreeNode:
        predicted, clause, verified = _annotate(coords, enumerate_counts)
        children = ()
        if remaining > 0:
            left, right = tree_children(coords)
            children = (build(left, remaining - 1), build(right, remaining - 1))
        return TreeNode(coords, predicted, clause, verified, children)

    root = SchemeCoordinates(GotzmannPartition((0,)), codim, char)
    return build(root, depth)
