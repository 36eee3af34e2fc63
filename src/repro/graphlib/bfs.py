"""Distributed BFS over the edge relation (iterative frontier joins).

Backs the Spark G0 component search (Algorithm 2: one multi-source BFS
over the query labels' cores). Each round expands the frontier by one
hop with a join + anti-join; rounds = eccentricity of the source set.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .labeled import SparkLabeledGraph


def bfs_distances(
    g: SparkLabeledGraph, sources: Iterable[int], max_rounds: int = 10_000
) -> DataFrame:
    """(id, dist) hop distances from the nearest of ``sources``.

    Unreachable vertices are absent from the result (join with the
    vertex frame and coalesce if you need explicit infinities).

    Each round is one action: counting the new frontier both
    materialises it (a lazy ``localCheckpoint``) and decides
    termination. In an undirected graph the neighbours of layer d lie in
    layers d-1, d and d+1, so the next layer is the frontier's
    neighbourhood minus the last two layers, and the layers are unioned
    once at the end.
    """
    spark = SparkSession.getActiveSession()
    src_list = [(int(s),) for s in sources]
    if not src_list:
        raise ValueError("bfs_distances needs at least one source")
    adj = g.symmetric_edges().localCheckpoint(eager=False)
    frontier = (
        spark.createDataFrame(src_list, "id long")
        .join(g.vertices.select("id"), "id", "semi")
        .distinct()
        .localCheckpoint(eager=False)
    )
    layers = [frontier.select("id", F.lit(0).alias("dist"))]
    prev = frontier.limit(0)
    for d in range(1, max_rounds + 1):
        nxt = (
            adj.join(frontier, "id", "semi")
            .select(F.col("nbr").alias("id"))
            .distinct()
            .join(frontier.unionAll(prev), "id", "anti")
            .localCheckpoint(eager=False)
        )
        if nxt.count() == 0:
            return reduce(DataFrame.unionAll, layers)
        layers.append(nxt.select("id", F.lit(d).alias("dist")))
        prev, frontier = frontier, nxt
    raise RuntimeError("bfs did not terminate")

