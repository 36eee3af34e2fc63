"""Distributed per-vertex butterfly counting on a bipartite edge set.

Algorithm 3 of the paper expressed as relational dataflow. Given cross
edges ``(left, right)``:

* same-side wedge counts: ``P[u, w] = |N(u) ∩ N(w)|`` for ``u != w`` on
  the same side, obtained by self-joining the edge relation on the
  opposite endpoint;
* butterfly degree: ``chi(u) = Σ_w C(P[u, w], 2)``.

The totals satisfy ``Σ_{left} chi = Σ_{right} chi = 2 · #butterflies``
(each butterfly has two vertices per side), which tests assert.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def _side_chi(edges: DataFrame, side: str, other: str) -> DataFrame:
    """chi for all vertices of ``side`` (column name) of the bipartite graph."""
    e1 = edges.select(F.col(side).alias("u"), F.col(other).alias("o"))
    e2 = edges.select(F.col(side).alias("w"), F.col(other).alias("o"))
    wedges = (
        e1.join(e2, "o")
        .where(F.col("u") != F.col("w"))
        .groupBy("u", "w")
        .agg(F.count("*").alias("p"))
    )
    return (
        wedges.groupBy("u")
        .agg(F.sum(F.col("p") * (F.col("p") - 1) / 2).cast("long").alias("chi"))
        .select(F.col("u").alias("id"), "chi")
    )


def butterfly_degrees(cross_edges: DataFrame) -> DataFrame:
    """(id, chi) for every endpoint of ``cross_edges`` (left, right).

    Vertices with no butterflies get ``chi = 0``.
    """
    edges = cross_edges.select("left", "right").distinct()
    chi = _side_chi(edges, "left", "right").unionAll(
        _side_chi(edges, "right", "left")
    )
    all_ids = (
        edges.select(F.col("left").alias("id"))
        .unionAll(edges.select(F.col("right").alias("id")))
        .distinct()
    )
    return (
        all_ids.join(chi, "id", "left")
        .select("id", F.coalesce("chi", F.lit(0)).alias("chi"))
    )

