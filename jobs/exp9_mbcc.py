"""Exp-9/10 (Figures 14/10) — multi-labeled BCC quality and efficiency.

Varies the number of query labels m on the Baidu-like and DBLP-M
stand-ins and reports F1 + query time per method. Runs on the driver;
starts no SparkSession.

    python jobs/exp9_mbcc.py [n_queries]
"""
from __future__ import annotations

import sys

from repro.eval.experiments import run_mbcc
from repro.eval.tables import markdown_table


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    rows = []
    rows += run_mbcc("baidu1_m{m}_lite", ms=(2, 3, 4),
                     methods=("L2P-BCC", "CTC", "PSA"), n_queries=n)
    rows += run_mbcc("baidu2_m{m}_lite", ms=(2, 3, 4),
                     methods=("L2P-BCC", "CTC", "PSA"), n_queries=n)
    rows += run_mbcc("dblp_m{m}_lite", ms=(2, 3, 4),
                     methods=("Online-BCC", "LP-BCC", "L2P-BCC"), n_queries=n)
    print(markdown_table(
        ["dataset", "m", "method", "mean F1", "mean time (ms)", "#empty"],
        [
            (r["dataset"], r["m"], r["method"], round(r["f1"], 3),
             round(r["time_s"] * 1000, 2), r["empty"])
            for r in rows
        ],
    ))


if __name__ == "__main__":
    main()
