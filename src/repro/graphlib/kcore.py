"""Distributed coreness decomposition.

:func:`coreness` is the distributed H-index fixpoint (Lü et al.,
"Vital nodes identification in complex networks"): initialise each
vertex's estimate to its degree, then repeatedly replace it with the
H-index of its neighbours' estimates. The sequence is monotonically
non-increasing and converges to the coreness; rounds are bounded by a
few tens on real graphs regardless of k_max. The H-index is computed
with a window rank: ``h(v) = max{r : r-th largest neighbour estimate
>= r}``. The k-core of a graph is then the filter ``coreness >= k``.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

if TYPE_CHECKING:
    from .labeled import SparkLabeledGraph


#: guard on the fixpoint rounds (a few tens on real graphs)
MAX_ROUNDS = 200


def coreness(g: SparkLabeledGraph) -> DataFrame:
    """(id, coreness) for every vertex via the H-index fixpoint.

    Each round is one action: counting the changed estimates both
    materialises the round's (lazily checkpointed) estimates and decides
    convergence.
    """
    adj = g.symmetric_edges().localCheckpoint(eager=False)
    est = g.degrees().select("id", F.col("degree").alias("est"))
    est = est.localCheckpoint(eager=False)
    w = Window.partitionBy("id").orderBy(F.desc("nbr_est"), F.asc("nbr"))
    for _ in range(MAX_ROUNDS):
        nbr_est = adj.join(
            est.select(F.col("id").alias("nbr"), F.col("est").alias("nbr_est")),
            "nbr",
        )
        h = (
            nbr_est.withColumn("rn", F.row_number().over(w))
            .where(F.col("nbr_est") >= F.col("rn"))
            .groupBy("id")
            .agg(F.max("rn").alias("h"))
        )
        step = (
            est.join(h, "id", "left")
            .select(
                "id",
                F.least(F.col("est"), F.coalesce(F.col("h"), F.lit(0))).alias("est"),
                F.col("est").alias("old"),
            )
            .localCheckpoint(eager=False)
        )
        changed = step.where(F.col("est") != F.col("old")).count()
        est = step.select("id", "est")
        if changed == 0:
            return est.select("id", F.col("est").alias("coreness"))
    raise RuntimeError(f"coreness did not converge in {MAX_ROUNDS} rounds")


def max_coreness(g: SparkLabeledGraph) -> int:
    """k_max of the graph (0 for an edgeless graph)."""
    row = coreness(g).agg(F.max("coreness").alias("m")).collect()[0]
    return int(row["m"]) if row["m"] is not None else 0
