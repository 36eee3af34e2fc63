"""Self-tests of the benchmark itself.

    python3 bccbench/selftest.py [workload ...]   # default: all three

For each workload: two traced runs with the same seed must report every
count and count ratio identically, and every run must come back
``correct``. Spark job counts are the exception: with adaptive query
execution Spark may submit a few more or fewer jobs for the same query
(264 vs 265 and 263 vs 273 seen on one seed), so they must agree within
5%. A run is correct only when every answer passed the checks,
the checker rejected deliberately corrupted answers, and (traced) each
query's span self times add up to its root span within 10%.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lp_global", "l2p_mbcc", "spark_g0")
# counts, and ratios of counts; times vary from run to run
COUNT_UNITS = {"count", "vertices"}
COUNT_RATIOS = {
    "g0.answer_ratio",
    "engine.recounts_per_iteration",
    "bcindex.chi_hit_ratio",
    "l2p.candidate_yield",
}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(workloads) -> int:
    failures = []
    for wl in workloads:
        before = len(failures)
        first, second = run(wl, 1), run(wl, 1)
        plain = run(wl, 0)
        for label, res in (("traced", first), ("traced", second), ("untraced", plain)):
            if not res["correct"] or res["failed"]:
                failures.append(f"{wl}: {label} run not correct")
        for name, m in first["metrics"].items():
            other = second["metrics"][name]["value"]
            if name.endswith("_jobs"):
                if abs(m["value"] - other) > 0.05 * max(m["value"], other):
                    failures.append(f"{wl}: {name} differs: {m['value']} vs {other}")
            elif m["unit"] in COUNT_UNITS or name in COUNT_RATIOS:
                if m["value"] != other:
                    failures.append(f"{wl}: {name} differs: {m['value']} vs {other}")
        print(f"{wl}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
