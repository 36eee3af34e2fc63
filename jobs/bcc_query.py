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
from typing import Optional

from pyspark.sql import SparkSession

from _common import get_spark
from repro.core import BCCResult, default_ks, lp_bcc
from repro.eval.datasets import load
from repro.eval.metrics import f1_score
from repro.eval.queries import community_query_pairs
from repro.graphlib import SparkLabeledGraph


def run(
    spark: SparkSession, dataset: str = "baidu1_lite", query_idx: int = 0
) -> Optional[BCCResult]:
    """Distributed-G0 LP-BCC search for one sampled query; prints its
    summary and returns the community (``None`` if there is none)."""
    pg = load(dataset)
    g = pg.to_local()
    cid, Q = community_query_pairs(pg, g, n=query_idx + 1, seed=0)[query_idx]
    ks = default_ks(g, Q)
    sg = SparkLabeledGraph(*pg.to_spark(spark)).cache()
    res = lp_bcc(sg, Q, ks, b=1)
    if res is None:
        print(f"no ({ks}, b=1)-BCC for Q={Q} on {dataset}")
        return None
    print(
        f"dataset={dataset} Q={Q} ks={ks} |C|={len(res.vertices)} "
        f"qdist={res.qdist} F1_vs_truth={f1_score(res.vertices, pg.communities[cid]):.3f} "
        f"stats={res.stats}"
    )
    return res


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "baidu1_lite"
    idx = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    spark = get_spark("bcc_query")
    res = run(spark, dataset, idx)
    if res is not None:
        print(res.graph.to_pandas()[0].to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
