"""Table 3 — network statistics of the seven dataset stand-ins.

All five statistics (|V|, |E|, #labels, k_max, d_max) are computed with
the distributed tier: degrees and label counts as aggregations, k_max
via the distributed H-index coreness fixpoint.

    spark-submit jobs/table3_stats.py
"""
from __future__ import annotations

from typing import List

from pyspark.sql import SparkSession

from _common import get_spark
from repro.eval.datasets import DATASET_PARAMS, PAPER_NAME, PAPER_TABLE3, load
from repro.eval.tables import markdown_table
from repro.graphlib import SparkLabeledGraph, graph_stats


def run(spark: SparkSession, datasets=None) -> List[dict]:
    """The Table-3 row of every dataset, one dict each."""
    rows = []
    for name in datasets or DATASET_PARAMS:
        pg = load(name)
        sg = SparkLabeledGraph(*pg.to_spark(spark))
        rows.append(graph_stats(sg, name).row())
    return rows


def main() -> None:
    spark = get_spark("table3_stats")
    got = {r["Network"]: r for r in run(spark)}
    paper_by_name = {r[0]: r for r in PAPER_TABLE3}
    rows = []
    for name in DATASET_PARAMS:
        p = paper_by_name[PAPER_NAME[name]]
        g = got[name]
        rows.append(
            (
                PAPER_NAME[name], p[1], p[2], p[3], p[4], p[5],
                name, g["|V|"], g["|E|"], g["Labels"], g["k_max"], g["d_max"],
            )
        )
    print(
        markdown_table(
            [
                "Paper network", "|V|", "|E|", "Labels", "k_max", "d_max",
                "Ours", "|V|", "|E|", "Labels", "k_max", "d_max",
            ],
            rows,
        )
    )
    spark.stop()


if __name__ == "__main__":
    main()
