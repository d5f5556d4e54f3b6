"""The benchmark's traced names still resolve in the library.

bench/spans.py wraps the functions it lists in SPANS and counts the
ideals of every level yielded by the generators in LEVELS, reading
len(level.ideals), or len(level) when a level has no .ideals.  A library
change that drops or renames one of these, or yields levels whose len is
not their ideal count, would break the traced benchmark; these tests
catch it first.  spans.py is executed from its source, so nothing is
written under bench/.
"""

import importlib
import types
from pathlib import Path

import pytest

from borelpoints import (
    Characteristic,
    GotzmannPartition,
    MonomialIdeal,
    enumerate_borel_fixed,
    enumerate_strongly_stable,
)

from conftest import mini_grid

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), vars(module))
    return module


def _library(mod_name):
    return importlib.import_module(f"borelpoints.{mod_name}")


def test_every_span_resolves(spans):
    for mod_name, cls_name, attr in spans.SPANS:
        owner = _library(mod_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        assert attr in vars(owner), f"{mod_name}.{attr}"


def test_every_level_generator_resolves(spans):
    for mod_name, attr, _ in spans.LEVELS:
        assert callable(getattr(_library(mod_name), attr, None)), f"{mod_name}.{attr}"


def test_levels_count_their_ideals(spans):
    p2 = Characteristic(2)
    runs = {
        "reeves": mini_grid(),
        "exhaustive": [
            (GotzmannPartition(parts), n, p2)
            for parts, n in [((0, 0, 0, 0), 2), ((1, 1, 1, 0), 3)]
        ],
    }
    for mod_name, attr, _ in spans.LEVELS:
        levels_of = getattr(_library(mod_name), attr)
        for args in runs[mod_name]:
            for level in levels_of(*args):
                ideals = set(level)
                assert all(isinstance(I, MonomialIdeal) for I in ideals)
                assert len(getattr(level, "ideals", level)) == len(ideals)


def test_traced_counts_match_the_levels(spans):
    # the recorder's counters, with its wrappers installed and removed
    partition, n, ch = GotzmannPartition((0, 0, 0, 0)), 2, Characteristic(2)
    walk_levels = [
        len(level) for level in _library("reeves").enumeration_levels(partition, n)
    ]
    search_levels = [
        len(level)
        for level in _library("exhaustive").search_levels(partition, n, ch)
    ]
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert not recorder.missing
        enumerate_strongly_stable(partition, n)
        enumerate_borel_fixed(partition, n, ch)
    finally:
        recorder.uninstall()
    assert recorder.counters["reeves.level_ideals"] == sum(walk_levels)
    assert recorder.counters["reeves.level_ideals.final"] == walk_levels[-1]
    assert recorder.counters["exhaustive.states_alive"] == sum(search_levels)
