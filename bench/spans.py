"""Spans around the library's layer boundaries, for the traced pass only.

The recorder rebinds the functions listed in SPANS to timing wrappers.  A
function is rebound under every name that refers to it in any
``borelpoints`` module, because modules import each other's functions by
name (``reeves`` holds its own reference to ``borel.expand``).  Methods
are rebound on the class.  ``uninstall`` restores every original, so the
library source is never changed and untraced workers never see a wrapper.

Each span records name, start, end, parent span and trace id (the job's
index in the pass) in flat arrays, which stay in memory until ``write``.
Self time is derived afterwards: a span's duration minus the durations of
its children, which cannot overlap since the calls are synchronous.

Primitives below these boundaries (``divides``, ``exchange``,
``binomial``, ...) are not wrapped: they are called so often that
wrapping them would measure the wrapper.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter

# (module, class or None, attribute); the span is named module.attribute
SPANS = (
    ("cli", None, "main"),
    ("classify", None, "verify_classification"),
    ("classify", None, "count_borel_fixed"),
    ("reeves", None, "enumerate_strongly_stable"),
    ("exhaustive", None, "enumerate_borel_fixed"),
    ("borel", None, "is_borel_fixed"),
    ("borel", None, "expandable_generators"),
    ("borel", None, "expand"),
    ("borel", None, "borel_closure"),
    ("monomial_ideal", "MonomialIdeal", "contains"),
    ("monomial_ideal", "MonomialIdeal", "saturate"),
    ("monomial_ideal", "MonomialIdeal", "from_generators"),
    ("monomial_ideal", "MonomialIdeal", "hilbert_function"),
    ("monomial_ideal", "MonomialIdeal", "hilbert_numerator"),
    ("monomial_ideal", None, "hilbert_polynomial"),
    ("hilbert_poly", None, "peel_to_partition"),
)

# generators whose yielded levels are counted: (module, attribute, counter)
LEVELS = (
    ("reeves", "enumeration_levels", "reeves.level_ideals"),
    ("exhaustive", "search_levels", "exhaustive.states_alive"),
)

# process-wide caches read through cache_info(): (module, attribute, metric).
# The worker empties them before every job, so collect_caches() adds up
# each job's hits and misses before that.
CACHES = (
    ("monomial_ideal", "_numerator", "monomial_ideal.numerator_cache"),
    ("exhaustive", "_orbit", "exhaustive.orbit_cache"),
)

SPAN_NAMES = tuple(f"{m}.{a}" for m, _, a in SPANS)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced pass reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for _, _, prefix in CACHES:
        units[f"{prefix}.hit_ratio"] = "ratio"
        units[f"{prefix}.lookups"] = "count"
        units[f"{prefix}.size"] = "count"
    units.update(
        {
            "exhaustive.states_alive": "count",
            "exhaustive.joins": "count",
            "exhaustive.join_yield": "ratio",
            "reeves.level_ideals": "count",
            "reeves.expansion_yield": "ratio",
        }
    )
    return units


class Recorder:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.trace_id = -1
        self.counters: Counter = Counter()
        # per cache: hits, misses, largest size reached in one job
        self.cache_totals = {prefix: [0, 0, 0] for _, _, prefix in CACHES}
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def _span(self, name_id: int, fn):
        names, parents, traces = self.name, self.parent, self.trace
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            traces.append(self.trace_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _levels(self, counter: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            last = 0
            for level in fn(*args, **kwargs):
                last = len(getattr(level, "ideals", level))
                counters[counter] += last
                yield level
            counters[counter + ".final"] += last

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.split(".")[0] == "borelpoints":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        for name_id, (mod_name, cls_name, attr) in enumerate(SPANS):
            mod = sys.modules.get(f"borelpoints.{mod_name}")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append(SPAN_NAMES[name_id])
                continue
            original = vars(owner)[attr]
            if cls_name is None:
                self._rebind(original, self._span(name_id, original))
            else:
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._span(name_id, original.__func__))
                else:
                    wrapped = self._span(name_id, original)
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, original))
        for mod_name, attr, counter in LEVELS:
            original = getattr(sys.modules.get(f"borelpoints.{mod_name}"), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._rebind(original, self._levels(counter, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def collect_caches(self) -> None:
        """Add the caches' use since they were last emptied to the totals."""
        for mod_name, attr, prefix in CACHES:
            fn = getattr(sys.modules.get(f"borelpoints.{mod_name}"), attr, None)
            if not hasattr(fn, "cache_info"):
                if f"{mod_name}.{attr}.cache_info" not in self.missing:
                    self.missing.append(f"{mod_name}.{attr}.cache_info")
                continue
            info = fn.cache_info()
            totals = self.cache_totals[prefix]
            totals[0] += info.hits
            totals[1] += info.misses
            totals[2] = max(totals[2], info.currsize)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        self.collect_caches()
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(SPANS)
        self_s = [0.0] * len(SPANS)
        joins = 0
        fg = SPAN_NAMES.index("monomial_ideal.from_generators")
        exhaustive_ids = {
            k for k, s in enumerate(SPAN_NAMES) if s.startswith("exhaustive.")
        }
        for i in range(n):
            k = name[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
            if k == fg and parent[i] >= 0 and name[parent[i]] in exhaustive_ids:
                joins += 1
        out: dict[str, float] = {}
        for k, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = calls[k]
            out[f"{span}.self_s"] = self_s[k]
        for prefix, (hits, misses, size) in self.cache_totals.items():
            lookups = hits + misses
            out[f"{prefix}.hit_ratio"] = hits / lookups if lookups else 0.0
            out[f"{prefix}.lookups"] = lookups
            out[f"{prefix}.size"] = size
        alive = self.counters["exhaustive.states_alive"]
        expands = calls[SPAN_NAMES.index("borel.expand")]
        out["exhaustive.states_alive"] = alive
        out["exhaustive.joins"] = joins
        out["exhaustive.join_yield"] = alive / joins if joins else 0.0
        out["reeves.level_ideals"] = self.counters["reeves.level_ideals"]
        out["reeves.expansion_yield"] = (
            self.counters["reeves.level_ideals.final"] / expands if expands else 0.0
        )
        return out

    def write(self, path) -> None:
        """Spans as a gzip file: one JSON header line, then the raw arrays
        (name, parent, trace as int32; start, end as float64 seconds of
        the worker's perf_counter) in the order the header lists them."""
        header = {
            "names": list(SPAN_NAMES),
            "count": len(self.start),
            "fields": [
                ["name", "i"],
                ["parent", "i"],
                ["trace", "i"],
                ["start", "d"],
                ["end", "d"],
            ],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field in (self.name, self.parent, self.trace, self.start, self.end):
                f.write(field.tobytes())
