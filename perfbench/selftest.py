"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload, at seed SEED and SECONDS per run, it checks that

* two traced runs at one seed report identical counts (every per-layer
  metric whose unit is count, bytes or ratio) and identical output
  fingerprints;
* each traced run found its traced passes bit-identical to the untraced
  passes of the same operations, and its counters equal across passes
  (both are part of that run's ``correct`` flag);
* an untraced run is correct with no failed operation.

Exits 0 when every check holds, 1 otherwise.  Each run is a separate
process started with the same interpreter, one at a time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
EXACT_UNITS = ("count", "bytes", "ratio")
SEED = 3  # not the held-out seed
SECONDS = 3.0


def bench(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    shas = {ln.split("=", 1)[0].strip(): ln.split("=", 1)[1].split()[0] for ln in lines if "_sha256 =" in ln}
    return json.loads(lines[-1]), shas


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        (first, sha1), (second, sha2) = (bench(workload, 1) for _ in range(2))
        plain, _ = bench(workload, 0)
        for label, res in (("traced run 1", first), ("traced run 2", second), ("untraced run", plain)):
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload}: {label} not correct ({res['failed']}/{res['attempted']} failed)")
        exact = sorted(k for k, m in first["metrics"].items() if m["unit"] in EXACT_UNITS)
        differ = [k for k in exact if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        if differ:
            problems.append(f"{workload}: counts differ between traced runs: {', '.join(differ)}")
        for key in ("outputs_sha256", "counters_sha256"):
            if key not in sha1 or sha1[key] != sha2.get(key):
                problems.append(f"{workload}: {key} differs between traced runs")
        print(f"{workload}: {len(exact)} exact counters compared, "
              f"{'identical' if not differ else 'DIFFERENT'}; outputs {sha1.get('outputs_sha256', '?')[:16]}, "
              f"counters {sha1.get('counters_sha256', '?')[:16]}; "
              f"untraced run {plain['attempted']} ops, {plain['failed']} failed")
    for p in problems:
        print("SELFTEST FAILED:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
