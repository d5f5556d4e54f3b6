"""Self-test of the benchmark itself (not of the library).

    python3 bench/selftest.py

Checks, on short runs of every workload, that:
- a tampered output, with one ideal dropped, is caught (error rate > 0);
- an untampered run is correct and reports every end-to-end metric, and
  a traced run every per-layer metric, that BENCHMARK.json lists;
- tracing restores every attribute it rebinds;
- a worker refuses to run under ``python -O``;
- run.py fails without a result when the checkout has no library.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

def run(workload: str, trace: int, *extra: str, root: Path = ROOT):
    cmd = [
        sys.executable,
        "bench/run.py",
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        str(trace),
        "--max-jobs",
        "3",
        *extra,
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(spec: dict) -> None:
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        tampered = result(run(workload, 0, "--tamper"))
        assert tampered["failed"] > 0 and not tampered["correct"], (workload, tampered)
        clean = result(run(workload, 0))
        assert clean["correct"] and clean["failed"] == 0, (workload, clean)
        assert set(clean["metrics"]) == end_to_end, (workload, set(clean["metrics"]))
        traced = result(run(workload, 1))
        assert traced["correct"] and traced["failed"] == 0, (workload, traced)
        assert set(traced["metrics"]) == per_layer, (workload, set(traced["metrics"]) ^ per_layer)
        print(f"{workload}: tamper caught, metrics complete", flush=True)


def check_restore() -> None:
    sys.path.insert(0, str(BENCH))
    from worker import import_library

    import_library()
    import spans
    import workloads  # noqa: F401  (imports every traced module)

    def snapshot():
        return {
            (name, attr): value
            for name, mod in sys.modules.items()
            if name.split(".")[0] == "borelpoints"
            for attr, value in vars(mod).items()
        } | {
            ("MonomialIdeal", attr): value
            for attr, value in vars(sys.modules["borelpoints.monomial_ideal"].MonomialIdeal).items()
        }

    before = snapshot()
    recorder = spans.Recorder()
    recorder.install()
    changed = {k for k, v in snapshot().items() if before.get(k) is not v}
    recorder.uninstall()
    after = snapshot()
    assert not recorder.missing, recorder.missing
    assert changed, "tracing rebound nothing"
    assert all(after[k] is before[k] for k in before), "an attribute was not restored"
    print(f"tracing rebinds {len(changed)} attributes and restores them", flush=True)


def check_refusals() -> None:
    proc = subprocess.run(
        [sys.executable, "-O", "bench/worker.py", "--workload", "grid_char0", "--seed", "1", "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and "ready" not in proc.stdout, "worker ran under -O"
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        proc = run("grid_char0", 0, root=bare)
        assert proc.returncode != 0, "run.py succeeded without a library"
        assert '"metrics"' not in proc.stdout, "run.py printed a result without a library"
    finally:
        shutil.rmtree(bare)
    print("refuses -O and a checkout without the library", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_restore()
    check_refusals()
    check_runs(spec)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
