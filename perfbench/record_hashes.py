"""Record the SHA-256 of every workload's output for every input variant.

Run from the repository root, at the commit whose output is the reference:

    python3 perfbench/record_hashes.py

It writes perfbench/hashes.json. The benchmark reports whether later runs
reproduce these digests (output_identical), as information only: a change
may alter the draw order on purpose if it says so.
"""

from __future__ import annotations

import json
import os
import sys

from run import WORK_ROOT, Runner, remove_work_dir
from workloads import HASHES_PATH, VARIANTS, WORKLOADS, digest


def main() -> int:
    work_dir = os.path.join(WORK_ROOT, f"hashes-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    runner = Runner(work_dir)
    table = {}
    try:
        for workload in WORKLOADS.values():
            table[workload.name] = {}
            for variant in range(VARIANTS):
                invs = workload.build(variant, work_dir)
                table[workload.name][str(variant)] = digest([runner.cli(inv).output for inv in invs])
                print(workload.name, variant, table[workload.name][str(variant)], flush=True)
    finally:
        remove_work_dir(work_dir)
    if runner.failed:
        print(f"{runner.failed} invocations failed their checks; nothing written", file=sys.stderr)
        return 1
    with open(HASHES_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
