"""Exp-1 (Figure 4) and Exp-2 (Figure 5) — F1 quality and query time.

Runs all five methods over random in-community query pairs on the seven
dataset stand-ins, measuring both in one pass, and prints two tables:
the mean F1 against the ground-truth communities and the mean query
time per (dataset, method). Runs on the driver; starts no SparkSession.

    python jobs/exp1_exp2_quality_efficiency.py [n_queries]
"""
from __future__ import annotations

import sys

from repro.eval.datasets import DATASET_PARAMS
from repro.eval.experiments import run_quality_efficiency
from repro.eval.tables import markdown_table


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    rows = []
    for ds in DATASET_PARAMS:
        rows.extend(run_quality_efficiency(ds, n_queries=n))
    print("Exp-1 (Figure 4): F1 vs ground truth\n")
    print(
        markdown_table(
            ["dataset", "method", "mean F1", "#empty"],
            [(r["dataset"], r["method"], round(r["f1"], 3), r["empty"]) for r in rows],
        )
    )
    print("\nExp-2 (Figure 5): query time\n")
    print(
        markdown_table(
            ["dataset", "method", "mean query time (ms)"],
            [(r["dataset"], r["method"], round(r["time_s"] * 1000, 2)) for r in rows],
        )
    )


if __name__ == "__main__":
    main()
