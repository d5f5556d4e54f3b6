"""Benchmark runner for borelpoints: one workload, one seed, one run.

    python3 bench/run.py --workload points_p4 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
directory.  Every pass of the run is a fresh worker process (worker.py)
started with the interpreter's default flags, so the library's
process-wide caches start cold, as they do for a command-line user.
Each pass runs the workload's whole pool in an order set by the seed and
the pass index.  Passes repeat until ``--seconds`` of wall time is used
up; a run makes at least one pass.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
its passes.  Times are scaled to a reference machine speed: each worker
times a fixed calibration kernel right after it is ready, and a pass
worker also before, between and after its jobs.  A job's latency is
multiplied by CALIBRATION_REFERENCE_S over the median time of the
calibrations run near it (see scaled_latencies), and a set-up time by
the same ratio for the calibrations that follow it.  On a shared 2-vCPU
host, the machine switched between a fast and a slow state every few
seconds, about 1.5x apart, and raw times of the same code spread by 15%
to 30% between runs; scaled, by under 8%.  The kernel
never calls the library, so the scaling cancels the machine's speed but
not a change to the library.  Raw times are printed and kept in the
record.  With ``--trace 1`` every untraced pass is followed by a
traced one, and the run reports the per-layer metrics of the traced
passes and ``trace_overhead``, the traced over the untraced ``wall_s``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A full
record of the run (machine, Python, revision, every pass) is written to
``bench/out/``.  Exits 1 without a result when a worker cannot start or
dies, for instance when the checkout holds no ``src/borelpoints``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import layer_metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
WORKLOADS = ("points_p4", "grid_char0", "oracle_charp")
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10
TAIL_MIN_JOBS = 20
# the calibration kernel's time at the reference speed: about its median
# on a 2-vCPU x86-64 VM with CPython 3.11 (worker.calibrate)
CALIBRATION_REFERENCE_S = 0.010
# a job is scaled by the calibrations run within this long, or within its
# own latency if that is longer, before its start and after its end
CALIBRATION_REACH_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ideals_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def spawn(args, extra: list[str]) -> tuple[dict, dict]:
    """Start a worker; return its set-up sample and its result line.

    Set-up time runs from just before the process is spawned until it
    prints ``ready``: interpreter start, import of borelpoints, and the
    job list.  The sample holds it raw and scaled to the reference speed.
    """
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        *extra,
    ]
    if args.tamper:
        cmd.append("--tamper")
    if args.max_jobs is not None:
        cmd += ["--max-jobs", str(args.max_jobs)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        # read through one buffered stream: communicate() after readline()
        # would miss output the readline had already buffered
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode == -signal.SIGKILL:
        raise WorkerFailed(f"worker killed after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    try:
        result = json.loads(rest.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise WorkerFailed("worker printed no result")
    scale = CALIBRATION_REFERENCE_S / statistics.median(result["setup_calibration_s"])
    return {"raw_s": ready, "scaled_s": ready * scale}, result


def run_passes(args):
    setups = [spawn(args, ["--setup-only"])[0] for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        ready, result = spawn(args, ["--pass-index", str(index)])
        setups.append(ready)
        plain.append(result)
        # the first pass's once-per-run checks are not repeated, so they
        # do not count towards the length expected of the next pass
        once = result["check_s"] if result["checked_once"] else 0.0
        if args.trace:
            spans_out = OUT / f"{args.workload}.spans.gz"
            extra = ["--pass-index", str(index), "--trace", "--spans-out", str(spans_out)]
            ready, result = spawn(args, extra)
            setups.append(ready)
            traced.append(result)
        index += 1
        now = time.perf_counter()
        if now - start + (now - t0 - once) > args.seconds:
            return setups, plain, traced


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND jobs beyond it.

    With fewer than TAIL_MIN_JOBS jobs there is no such percentile worth
    the name, and the maximum is returned (percentile 100).
    """
    ranked = sorted(latencies)
    n = len(ranked)
    idx = n - TAIL_BEYOND - 1 if n >= TAIL_MIN_JOBS else n - 1
    return ranked[idx], 100.0 * (idx + 1) / n, n


def scaled_latencies(p: dict) -> list[float]:
    """A pass's job latencies at the reference machine speed.

    Job i ran after the calibrations with ``calibrated_after`` <= i and
    before those with ``calibrated_after`` > i.  Time is counted in job
    time, the latencies summed.  The machine's speed around job i is the
    median of the calibrations within CALIBRATION_REACH_S, or within the
    job's own latency if that is longer, before its start and after its
    end, and at least the nearest one on each side.  A long job is thus
    scaled by the speed over a stretch as long as itself on either side:
    the speed can change during a job, and no calibration runs inside it.
    """
    after, times, latencies = p["calibrated_after"], p["calibration_s"], p["latencies"]
    at = [0.0]
    for latency in latencies:
        at.append(at[-1] + latency)
    scaled = []
    for i, latency in enumerate(latencies):
        reach = max(latency, CALIBRATION_REACH_S)
        before = [t for a, t in zip(after, times) if a <= i and at[a] >= at[i] - reach]
        behind = [t for a, t in zip(after, times) if a > i and at[a] <= at[i + 1] + reach]
        before = before or [t for a, t in zip(after, times) if a <= i][-1:]
        behind = behind or [t for a, t in zip(after, times) if a > i][:1]
        scaled.append(latency * CALIBRATION_REFERENCE_S / statistics.median(before + behind))
    return scaled


def end_to_end(setups, passes) -> tuple[dict, list[str], dict]:
    """Metric values scaled to the reference speed, their lines, and the
    raw (unscaled) values."""
    med = statistics.median

    def measure(setup_times, latencies):
        tails = [tail(pass_latencies) for pass_latencies in latencies]
        walls = [sum(pass_latencies) for pass_latencies in latencies]
        return {
            "setup_s": med(setup_times),
            "wall_s": med(walls),
            "ideals_per_s": med(p["ideals"] / w for p, w in zip(passes, walls)),
            "job_p50_s": med(x for pass_latencies in latencies for x in pass_latencies),
            "job_tail_s": med(t[0] for t in tails),
            "peak_rss_mb": med(p["rss_kb"] for p in passes) / 1024,
        }

    values = measure([s["scaled_s"] for s in setups], [scaled_latencies(p) for p in passes])
    raw = measure([s["raw_s"] for s in setups], [p["latencies"] for p in passes])
    tails = [tail(p["latencies"]) for p in passes]
    jobs_per_pass = len(passes[0]["latencies"])
    notes = {
        "setup_s": f"median of {len(setups)} worker starts",
        "wall_s": f"median of {len(passes)} passes of {jobs_per_pass} jobs",
        "ideals_per_s": f"{passes[0]['ideals']} ideals per pass over wall_s",
        "job_p50_s": f"median of {jobs_per_pass * len(passes)} job latencies",
        "job_tail_s": (
            f"p{tails[0][1]:.1f} of {tails[0][2]} jobs per pass, median over passes"
            if tails[0][2] >= TAIL_MIN_JOBS
            else f"fewer than {TAIL_MIN_JOBS} jobs per pass ({tails[0][2]}): the maximum"
        ),
        "peak_rss_mb": "worker ru_maxrss after the last job, median over passes",
    }
    calibrations = [t for p in passes for t in p["calibration_s"]]
    lines = [
        f"times are scaled to a calibration kernel time of {CALIBRATION_REFERENCE_S * 1000:g} ms; "
        f"its median here was {med(calibrations) * 1000:.4g} ms over {len(calibrations)} runs"
    ]
    lines += [
        f"{name} {values[name]:.6g} {unit}  ({notes[name]}; raw {raw[name]:.6g})"
        for name, unit in END_TO_END_UNITS.items()
    ]
    return values, lines, raw


def per_layer(plain, traced) -> tuple[dict, list[str]]:
    units = layer_metric_units()
    values = {
        name: statistics.median(p["layers"][name] for p in traced) for name in units
    }
    units["trace_overhead"] = "ratio"
    values["trace_overhead"] = statistics.median(
        sum(scaled_latencies(p)) for p in traced
    ) / statistics.median(sum(scaled_latencies(p)) for p in plain)
    lines = []
    for name, unit in units.items():
        note = ""
        if name.endswith(".hit_ratio"):
            note = f"  (of {values[name[: -len('hit_ratio')] + 'lookups']:.0f} lookups)"
        elif name == "exhaustive.join_yield":
            note = f"  (states alive per join, of {values['exhaustive.joins']:.0f} joins)"
        elif name == "reeves.expansion_yield":
            note = f"  (final ideals per expand call, of {values['borel.expand.calls']:.0f})"
        elif name == "trace_overhead":
            note = f"  (median traced over untraced wall_s, both speed-scaled, {len(traced)} pairs)"
        lines.append(f"{name} {values[name]:.6g} {unit}{note}")
    return {n: (values[n], units[n]) for n in units}, lines


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tamper", action="store_true", help="self-test: drop an ideal from each pass's first output")
    ap.add_argument("--max-jobs", type=int, help="self-test: truncate the job list")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        setups, plain, traced = run_passes(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = plain + traced
    attempted = sum(len(p["failed"]) for p in passes)
    failed = sum(sum(p["failed"]) for p in passes)
    env = environment()
    print(f"borelpoints benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"environment: {json.dumps(env)}")
    print(f"error_rate {failed / attempted:.6g}  ({failed} failed of {attempted} jobs attempted)")
    for p in passes:
        for err in p["errors"]:
            print(f"  failed: {err}")
    raw = None
    if args.trace:
        metrics, lines = per_layer(plain, traced)
    else:
        values, lines, raw = end_to_end(setups, plain)
        metrics = {n: (values[n], END_TO_END_UNITS[n]) for n in END_TO_END_UNITS}
    for line in lines:
        print(line)
    record = {
        "args": vars(args),
        "environment": env,
        "setup_s": setups,
        "passes": plain,
        "traced_passes": traced,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "raw_metrics": raw,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {record_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
