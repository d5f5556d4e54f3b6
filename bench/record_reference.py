"""Record reference.json: each pool job's ideal count and output digest.

Run from the root of a checkout whose outputs are trusted:

    python3 bench/record_reference.py

The digest covers the job's output in canonical sorted JSON (see
workloads.normalize and workloads.digest).  Each job is run twice, the
second time with the library's caches cleared, and must give the same
output both times.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE, import_library


def main() -> int:
    import_library()
    import workloads
    from borelpoints import exhaustive, monomial_ideal

    def clear_caches():
        for fn in (monomial_ideal._numerator, exhaustive._orbit):
            fn.cache_clear()

    reference = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.POOLS[workload]() + workloads.UNTIMED.get(workload, []):
            digests = set()
            for _ in range(2):
                out = workloads.normalize(job, workloads.run_job(job))
                if out.problems:
                    print(f"{job.key}: {out.problems}", file=sys.stderr)
                    return 1
                digests.add(workloads.digest(out.doc))
                clear_caches()
            if len(digests) != 1:
                print(f"{job.key}: output differs between runs", file=sys.stderr)
                return 1
            reference[job.key] = {
                "count": out.count,
                "digest": digests.pop(),
            }
            print(f"{job.key}: {reference[job.key]}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
