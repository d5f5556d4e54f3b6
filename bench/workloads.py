"""Workload pools, seeded job lists, job execution and output checks.

Imported by worker.py after it has put the checkout's ``src`` directory
first on ``sys.path``, so ``borelpoints`` is the code under test.

Jobs call the library through module attributes (``cli.main``,
``classify.verify_classification``, ...) at call time, so that the traced
worker's rebinding of those attributes is seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

from borelpoints import classify, cli, exhaustive, monomial_ideal, reeves
from borelpoints.classify import SchemeCoordinates, default_grid
from borelpoints.hilbert_poly import GotzmannPartition
from borelpoints.monomial_ideal import MonomialIdeal

WORKLOADS = ("points_p4", "grid_char0", "oracle_charp")

# ROADMAP's ladder of points in P^4 and its known ideal counts.  The odd k
# between the rungs are left out of the pool: the count check does not
# cover them, and they would more than double the length of a pass.
LADDER = {14: 146, 16: 289, 18: 560, 20: 1068}
# Rungs timed in every pass.  k = 20 alone takes about 7.6 s, so with it
# a 40 s run held only two or three passes and its medians spread by
# about 20% between seeds; it runs untimed, once per run (UNTIMED).
TIMED_RUNGS = (14, 16, 18)
SPOT_CHECKS_PER_PASS = 2


@dataclass(frozen=True)
class Job:
    """One call into the public API.

    kind is ``reeves-cli`` (``cli.main(["reeves", ...])`` with stdout
    captured) or ``verify`` (``verify_classification([coords])``).
    """

    kind: str
    coords: SchemeCoordinates

    @property
    def key(self) -> str:
        parts = ",".join(str(b) for b in self.coords.partition.parts)
        return f"{self.kind} {parts} n={self.coords.n} p={self.coords.char.value}"


def points_job(k: int) -> Job:
    return Job("reeves-cli", SchemeCoordinates(GotzmannPartition((0,) * k), 4))


def points_pool() -> list[Job]:
    return [points_job(k) for k in TIMED_RUNGS]


def grid_char0_pool() -> list[Job]:
    grid = default_grid(max_gotzmann=7, max_degree=3, codims=(2, 3))
    return [Job("verify", c) for c in grid if c.char.is_zero]


def oracle_charp_pool() -> list[Job]:
    return [Job("verify", c) for c in default_grid() if not c.char.is_zero]


POOLS = {
    "points_p4": points_pool,
    "grid_char0": grid_char0_pool,
    "oracle_charp": oracle_charp_pool,
}

# Jobs run once per run, after the first pass's timed loop, and checked
# like the timed ones: they are not timed.
UNTIMED = {
    "points_p4": [points_job(k) for k in LADDER if k not in TIMED_RUNGS],
}


def select_jobs(workload: str, seed: int, pass_index: int = 0) -> list[Job]:
    """The job list of one pass: the whole pool, in an order set by the
    seed and the pass index.

    Every job of the pool runs in every pass.  Seeded subsets were tried
    and dropped: the pools are small and heavy-tailed, so any subset moved
    a pass's work or ideal count by more than the run-to-run noise.  The
    library's caches are unbounded, so the order changes which job pays
    for a cache miss but not the total work.  Each pass of a run takes a
    different order, so a job's latency in the run is sampled over several
    cache states rather than the one state a single order gives it; with
    one order per run, the jobs near the median latency moved it by more
    than the noise between seeds allows.  A shuffled order also spreads
    each kind of job over the whole pass, so that the latency percentiles
    do not sample the machine in one short window, as pool order does.
    """
    pool = POOLS[workload]()
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(pool)
    return pool


# the library's process-wide caches: (module, attribute)
CACHES = ((monomial_ideal, "_numerator"), (exhaustive, "_orbit"))


def reset_caches() -> None:
    """Empty the library's process-wide caches before a job.

    A command-line call finds them empty, and a job's time should not
    depend on which jobs ran before it in the pass: with caches shared
    across jobs, a cell near the median latency of ``oracle_charp`` ran
    from 33 to 63 ms depending on the order.
    """
    for module, attr in CACHES:
        cached = getattr(module, attr, None)
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


def warmup_job(workload: str) -> Job:
    """An untimed job run before the timed loop (the pool's first)."""
    return POOLS[workload]()[0]


def run_job(job: Job):
    """Execute one job and return its raw output (timed by the caller)."""
    coords = job.coords
    if job.kind == "reeves-cli":
        argv = [
            "reeves",
            "--partition",
            ",".join(str(b) for b in coords.partition.parts),
            "--n",
            str(coords.n),
            "--json",
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    return classify.verify_classification([coords])


@dataclass
class Output:
    """A job's output in checkable form.

    doc is JSON-serializable and is what the digest covers; count is the
    number of canonical ideals the job returned; ideals, when the output
    carries them, feed the spot-check and the cross-engine check.
    """

    doc: object
    count: int
    ideals: list[MonomialIdeal] | None
    problems: list[str]


def normalize(job: Job, raw) -> Output:
    if job.kind == "reeves-cli":
        code, text = raw
        problems = [] if code == 0 else [f"exit code {code}"]
        doc = json.loads(text)
        return Output(doc, doc["count"], None, problems)
    doc = raw.to_json_dict()
    return Output(doc, doc["cells"][0]["verified"], None, [])


def drop_one_ideal(job: Job, out: Output) -> None:
    """Tamper with an output as if the job had lost one ideal (self-test)."""
    if job.kind == "reeves-cli":
        out.doc["ideals"].pop()
    else:
        out.doc["cells"][0]["verified"] -= 1
        out.count -= 1


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def ideals_of(job: Job, out: Output) -> list[MonomialIdeal]:
    if out.ideals is None:
        if job.kind == "reeves-cli":
            out.ideals = [MonomialIdeal.from_json_dict(row) for row in out.doc["ideals"]]
        else:
            out.ideals = sorted(classify.count_borel_fixed(job.coords)[1], key=lambda i: i.gens)
    return out.ideals


def check(job: Job, out: Output, reference: dict) -> list[str]:
    """Problems with one job's output against the recorded reference."""
    problems = list(out.problems)
    ref = reference.get(job.key)
    if ref is None:
        return problems + ["no reference output recorded"]
    if out.count != ref["count"]:
        problems.append(f"count {out.count}, reference {ref['count']}")
    if digest(out.doc) != ref["digest"]:
        problems.append("output digest differs from the reference")
    if job.kind == "reeves-cli":
        k = job.coords.partition.gotzmann_number
        if len(out.doc["ideals"]) != out.doc["count"]:
            problems.append("ideal list length differs from the reported count")
        if out.count != LADDER[k]:
            problems.append(f"ladder count {out.count} for k={k}, expected {LADDER[k]}")
    if job.kind == "verify" and not (out.doc["ok"] and out.doc["checked"] == 1):
        problems.append("verification report is not ok")
    return problems


def cross_check_engines(job: Job, out: Output) -> list[str]:
    """Characteristic 0 output of the Reeves walk must lie inside the
    exhaustive oracle's output at characteristic p (strongly stable ideals
    are Borel-fixed in every characteristic)."""
    c = job.coords
    walk = reeves.enumerate_strongly_stable(c.partition, c.n)
    oracle = exhaustive.enumerate_borel_fixed(c.partition, c.n, c.char)
    out.ideals = sorted(oracle, key=lambda i: i.gens)
    if len(oracle) != out.count:
        return [f"oracle gives {len(oracle)} ideals, the job reported {out.count}"]
    if not walk <= oracle:
        return [f"{len(walk - oracle)} Reeves ideals missing from the oracle output"]
    return []


def brute_hilbert_function(ideal: MonomialIdeal, d: int) -> int:
    """Degree-d monomials divisible by no generator, counted directly."""
    n = ideal.num_vars
    gens = ideal.gens
    total = 0
    for picks in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in picks:
            exps[i] += 1
        if not any(all(g[i] <= exps[i] for i in range(n)) for g in gens):
            total += 1
    return total


def spot_check(job: Job, ideal: MonomialIdeal) -> list[str]:
    """A saturated ideal whose Hilbert polynomial has Gotzmann number r is
    r-regular (Gotzmann's regularity theorem), so HF(r) = HP(r)."""
    partition = job.coords.partition
    r = partition.gotzmann_number
    got = brute_hilbert_function(ideal, r)
    want = partition.evaluate(r)
    if got != want:
        return [f"brute-force HF({r}) of {ideal} is {got}, expected {want}"]
    return []


def check_pass(jobs, outputs, reference, rng: random.Random, engines: bool) -> list[list[str]]:
    """Per-job problem lists for one pass's outputs.

    engines adds the cross-engine check for characteristic-p cells; it
    recomputes the oracle, so a run makes it on one pass only.
    """
    problems = [
        ["job raised or its output could not be read"] if o is None else check(j, o, reference)
        for j, o in zip(jobs, outputs)
    ]
    if engines:
        for i, (j, o) in enumerate(zip(jobs, outputs)):
            if not problems[i] and not j.coords.char.is_zero:
                problems[i] += cross_check_engines(j, o)
    ok = [i for i in range(len(jobs)) if not problems[i]]
    for i in rng.sample(ok, min(SPOT_CHECKS_PER_PASS, len(ok))):
        ideals = ideals_of(jobs[i], outputs[i])
        if len(ideals) != outputs[i].count:
            problems[i].append("recomputed ideal set differs in size from the output")
        elif ideals:
            problems[i] += spot_check(jobs[i], rng.choice(ideals))
    return problems
