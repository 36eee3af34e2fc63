"""End-to-end distributed BCC query demo.

Runs one full BCC search where the G0 phase (per-label coreness filter
and one BFS from the queries) executes as Spark dataflow (Algorithm 2
distributed), then Algorithm 2's feasibility check and the refinement
loop run on the collected candidate. Prints the community and its
stats.

    spark-submit jobs/bcc_query.py [dataset] [community_id]
"""
from __future__ import annotations

import sys

from pyspark.sql import DataFrame, SparkSession

from repro.core import default_ks, lp_bcc
from repro.eval.datasets import load
from repro.eval.metrics import f1_score
from repro.eval.queries import community_query_pairs
from repro.graphlib import SparkLabeledGraph


def run(spark: SparkSession, dataset: str = "baidu1_lite", query_idx: int = 0) -> DataFrame:
    """Distributed-G0 LP-BCC search for one sampled query; returns the
    community as a (id, label) DataFrame."""
    pg = load(dataset)
    g = pg.to_local()
    cid, Q = community_query_pairs(pg, g, n=query_idx + 1, seed=0)[query_idx]
    ks = default_ks(g, Q)
    sg = SparkLabeledGraph(*pg.to_spark(spark)).cache()
    res = lp_bcc(sg, Q, ks, b=1)
    if res is None:
        print(f"no ({ks}, b=1)-BCC for Q={Q} on {dataset}")
        return spark.createDataFrame([], "id long, label string")
    print(
        f"dataset={dataset} Q={Q} ks={ks} |C|={len(res.vertices)} "
        f"qdist={res.qdist} F1_vs_truth={f1_score(res.vertices, pg.communities[cid]):.3f} "
        f"stats={res.stats}"
    )
    vdf, _ = res.graph.to_pandas()
    return spark.createDataFrame(vdf)


def main() -> None:
    sys.path.insert(0, "src")
    from _common import get_spark  # noqa: PLC0415

    dataset = sys.argv[1] if len(sys.argv) > 1 else "baidu1_lite"
    idx = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    spark = get_spark("bcc_query")
    run(spark, dataset, idx).show(50)
    spark.stop()


if __name__ == "__main__":
    main()
