"""Regenerate ``reference.json``: the final phi, theta and mass and the
SHA-256 of summary.json, monitor.csv and picard.csv for every workload at
the sizes and seeds of ``workloads.REFERENCE_SEEDS``, from one run each of
the current checkout.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted; the benchmark's output
check compares every later run against these values.
"""

from __future__ import annotations

import os
import sys

import run
import workloads


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    refs = {}
    for size, seeds in workloads.REFERENCE_SEEDS.items():
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                record = run.Runner(run.ROOT, workload, seed, size).spawn()
                if "error" in record:
                    print(f"{workload} {size} seed {seed}: {record['error']}",
                          file=sys.stderr)
                    return 1
                check = record["check"]
                refs[workloads.reference_key(workload, seed, size)] = {
                    "final": check["final"], "sha256": check["sha256"],
                    "regime": check["regime"]}
                print(workload, size, seed, check["final"], flush=True)
    workloads.save_references(refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
