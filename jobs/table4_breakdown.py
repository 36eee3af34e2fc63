"""Table 4 — Online-BCC vs LP-BCC per-phase breakdown (Exp-5).

Runs both methods over the same query workload on the DBLP-like
breakdown instance and prints query-distance time, leader-pair-update
time, #butterfly-counting calls and total time, with speedups — the
paper's Table 4 rows. Runs on the driver; starts no SparkSession.

    python jobs/table4_breakdown.py [n_queries]
"""
from __future__ import annotations

import sys

from repro.eval.experiments import run_breakdown
from repro.eval.tables import table4_markdown

#: the paper's Table 4 (DBLP, 1000 queries)
PAPER_TABLE4 = {
    "qdist_time": (1.58, 0.75, "2.1x"),
    "leader_time": (4.98, 0.46, "10.8x"),
    "butterfly_counting": (34.86, 1.21, "28.8x"),
    "total_time": (11.5, 4.04, "2.8x"),
}


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    bd = run_breakdown("dblp_bd_lite", n_queries=n)
    print(f"Paper Table 4 (DBLP): {PAPER_TABLE4}")
    print(table4_markdown(bd))


if __name__ == "__main__":
    main()
