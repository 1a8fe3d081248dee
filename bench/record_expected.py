"""Re-record expected.json: the default seed's results for every workload.

Usage (from the repository root): python3 bench/record_expected.py

Run it only when a change is meant to alter simulated results or the
report format, and say so in the change.  It refuses to record when
socket_mix and file_mix disagree.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

KEYS = ("instructions", "cycles", "ipc", "sha256", "views_sha256")


def main() -> int:
    sys.path.insert(0, run.SRC)
    import workloads

    recorded = {}
    for size in workloads.SIZES:
        recorded[size] = {}
        for workload in run.WORKLOADS:
            workdir = os.path.join(run.WORK, f"record-{workload}-{size}")
            try:
                spec = workloads.prepare(workload, run.DEFAULT_SEED, size,
                                         workdir)
                result = run.analyze_once(spec)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            recorded[size][workload] = {k: result[k] for k in KEYS
                                        if k in result}
        mix = recorded[size]
        if mix["file_mix"] != mix["socket_mix"]:
            print(f"error: socket_mix and file_mix differ at size {size}",
                  file=sys.stderr)
            return 1
    with open(run.EXPECTED, "w", encoding="utf-8") as f:
        json.dump(recorded, f, indent=2)
        f.write("\n")
    print(json.dumps(recorded, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
