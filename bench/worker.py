"""One pass of a workload in a fresh interpreter.

Started by run.py with the interpreter's default flags.  It imports
``borelpoints`` from the checkout's ``src`` directory, builds the pass's
seeded job list, prints ``ready``, runs the jobs back to back (a closed
loop with one caller), and prints one JSON line with the pass's timings.
Outputs are checked after the timed loop; a failed check counts as a
failed job.  The first untimed pass of a run (``--pass-index 0``) also
runs the workload's untimed jobs and makes the once-per-run checks.

The worker also times a fixed calibration kernel, which does not touch
the library, before and after the timed loop and between jobs; run.py
divides the pass's times by the kernel's speed (see ``calibrate``).

    python3 bench/worker.py --workload grid_char0 --seed 1 --pass-index 0
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
# calibration runs: this many before and after the timed loop, and one
# between jobs whenever this much time has passed since the last
CALIBRATIONS_AROUND = 5
CALIBRATE_EVERY_S = 0.1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true", help="exit once ready")
    ap.add_argument("--trace", action="store_true", help="record spans")
    ap.add_argument("--spans-out", help="file for the recorded spans")
    ap.add_argument("--tamper", action="store_true", help="drop an ideal from the first output")
    ap.add_argument("--max-jobs", type=int, help="truncate the job list")
    return ap.parse_args(argv)


def import_library():
    """Import borelpoints from this checkout and nowhere else."""
    sys.path.insert(0, str(SRC))
    import borelpoints

    origin = Path(borelpoints.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"borelpoints was imported from {origin}, not from {SRC}")


def run_one(job, errors: list[str]):
    """A job's raw output, or None (with the error noted) if it raised."""
    import workloads

    try:
        return workloads.run_job(job)
    except Exception:
        errors.append(f"{job.key}: {traceback.format_exc(limit=3)}")
        return None


def calibrate(clock) -> float:
    """Time one run of a fixed pure-Python kernel.

    The kernel builds small integer tuples, frozensets and a dict, the
    kind of work the library does, and never calls the library, so no
    change to the library can change its time: only the machine's speed
    can.  run.py scales the pass's times by it.
    """
    t0 = clock()
    seen = {}
    acc = 0
    for i in range(7500):
        m = (i % 7, i % 11, i % 13, i % 5)
        seen[m] = seen.get(m, 0) + 1
        acc += len(frozenset(m)) + max(m)
    acc += len(sorted(seen))
    return clock() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        # -O strips the library's asserts and would fake a speedup
        print("error: refusing to run with sys.flags.optimize set", file=sys.stderr)
        return 3
    import_library()
    import workloads

    reference = json.loads(REFERENCE.read_text())
    jobs = workloads.select_jobs(args.workload, args.seed, args.pass_index)
    if args.max_jobs is not None:
        jobs = jobs[: args.max_jobs]
    print("ready", flush=True)
    # the machine's speed just after set-up, to scale the set-up time by
    setup_calibration = [calibrate(time.perf_counter) for _ in range(CALIBRATIONS_AROUND)]
    if args.setup_only:
        print(json.dumps({"setup_calibration_s": setup_calibration}), flush=True)
        return 0

    # warm-up: the first calls of a process pay for lazy set-up and for the
    # interpreter specialising the library's bytecode; no later job does
    run_one(workloads.warmup_job(args.workload), [])
    workloads.reset_caches()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    raws, latencies, errors = [], [], []
    clock = time.perf_counter
    calibration = [calibrate(clock) for _ in range(CALIBRATIONS_AROUND)]
    # how many jobs had run before each calibration
    calibrated_after = [0] * CALIBRATIONS_AROUND
    last = clock()
    for i, job in enumerate(jobs):
        if recorder is not None:
            recorder.trace_id = i
            recorder.collect_caches()
        # every job starts with empty caches and no garbage left to collect
        workloads.reset_caches()
        gc.collect()
        t0 = clock()
        raws.append(run_one(job, errors))
        t1 = clock()
        latencies.append(t1 - t0)
        if t1 - last >= CALIBRATE_EVERY_S:
            calibration.append(calibrate(clock))
            calibrated_after.append(i + 1)
            last = clock()
    calibration += [calibrate(clock) for _ in range(CALIBRATIONS_AROUND)]
    calibrated_after += [len(jobs)] * CALIBRATIONS_AROUND
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if recorder is not None:
        recorder.uninstall()
        layers = recorder.metrics()
        if args.spans_out:
            recorder.write(args.spans_out)
        if recorder.missing:
            print(f"warning: not traced: {', '.join(recorder.missing)}", file=sys.stderr)

    # the first untimed pass of a run also makes the checks that are made
    # once per run: the untimed jobs here, the cross-engine check below
    once = args.pass_index == 0 and not args.trace
    timed = len(jobs)
    t_check = clock()
    if once:
        untimed = workloads.UNTIMED.get(args.workload, [])
        jobs = jobs + untimed
        raws += [run_one(job, errors) for job in untimed]

    outputs = []
    for job, raw in zip(jobs, raws):
        try:
            outputs.append(None if raw is None else workloads.normalize(job, raw))
        except (ValueError, KeyError, TypeError, IndexError):
            errors.append(f"{job.key}: unreadable output: {traceback.format_exc(limit=1)}")
            outputs.append(None)
    if args.tamper and outputs and outputs[0] is not None:
        workloads.drop_one_ideal(jobs[0], outputs[0])
    rng = random.Random(f"spot:{args.workload}:{args.seed}:{args.pass_index}")
    problems = workloads.check_pass(jobs, outputs, reference, rng, once)
    check_s = clock() - t_check
    for job, found in zip(jobs, problems):
        errors.extend(f"{job.key}: {p}" for p in found)

    result = {
        "jobs": [job.key for job in jobs],
        "latencies": latencies,
        "failed": [bool(p) for p in problems],
        "setup_calibration_s": setup_calibration,
        "calibration_s": calibration,
        "calibrated_after": calibrated_after,
        "ideals": sum(o.count for o in outputs[:timed] if o is not None),
        "rss_kb": rss_kb,
        "check_s": check_s,
        "checked_once": once,
        "errors": errors[:20],
        "layers": layers,
        "spans": len(recorder.start) if recorder is not None else 0,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
