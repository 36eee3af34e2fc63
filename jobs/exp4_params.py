"""Exp-4 (Figures 8-9) — parameter sensitivity: runtime vs k and vs b.
Runs on the driver; starts no SparkSession.

    python jobs/exp4_params.py
"""
from __future__ import annotations

from repro.eval.experiments import run_param_sweep
from repro.eval.tables import markdown_table


def main() -> None:
    rows = [
        (r["param"], r["value"], r["method"], round(r["time_s"] * 1000, 2))
        for r in run_param_sweep("dblp_lite", n_queries=8)
    ]
    print(markdown_table(["param", "value", "method", "mean time (ms)"], rows))


if __name__ == "__main__":
    main()
