"""Distributed labeled graph over Spark DataFrames.

``SparkLabeledGraph`` is the bulk representation used for the global
phases of BCC search: per-label coreness (the BCindex's first
component) and the per-label core forest built from it (both memoised
per graph), butterfly counting, BCindex construction, and dataset
statistics. Vertices are ``(id BIGINT, label STRING)``; edges are
canonical undirected ``(src, dst)`` with ``src < dst``, deduplicated,
self-loop free.

All operations are DataFrame/Catalyst only (no RDDs): adjacency is the
symmetrized edge relation, degree is a groupBy, induced subgraphs are
semi-joins. The core forest is the one driver-side structure: O(|V|)
state, built by streaming the homogeneous edges through the driver once.
"""
from __future__ import annotations

from typing import Optional, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..local.forest import CoreForest
from ..local.graph import LocalGraph
from .kcore import coreness


class SparkLabeledGraph:
    """A labeled undirected graph held as two Spark DataFrames."""

    def __init__(self, vertices: DataFrame, edges: DataFrame):
        """``vertices``: (id, label); ``edges``: (src, dst), any orientation.

        Edges are canonicalised (src < dst, distinct, no self-loops) and
        restricted to declared vertices.
        """
        self.vertices = vertices.select(
            F.col("id").cast("long").alias("id"), F.col("label")
        ).dropDuplicates(["id"])
        ids = self.vertices.select("id")
        canon = (
            edges.select(
                F.least("src", "dst").cast("long").alias("src"),
                F.greatest("src", "dst").cast("long").alias("dst"),
            )
            .where(F.col("src") != F.col("dst"))
            .distinct()
        )
        self.edges = (
            canon.join(ids.withColumnRenamed("id", "src"), "src", "semi")
            .join(ids.withColumnRenamed("id", "dst"), "dst", "semi")
            .select("src", "dst")
        )
        self._label_core: Optional[DataFrame] = None
        self._forest: Optional[CoreForest] = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_pandas(
        cls, spark: SparkSession, vdf: pd.DataFrame, edf: pd.DataFrame
    ) -> "SparkLabeledGraph":
        return cls(spark.createDataFrame(vdf), spark.createDataFrame(edf))

    @classmethod
    def from_local(cls, spark: SparkSession, g: LocalGraph) -> "SparkLabeledGraph":
        vdf, edf = g.to_pandas()
        return cls.from_pandas(spark, vdf, edf)

    @classmethod
    def _of(cls, vertices: DataFrame, edges: DataFrame) -> "SparkLabeledGraph":
        """A graph over frames that are already canonical, with no memo."""
        g = cls.__new__(cls)
        g.vertices, g.edges, g._label_core, g._forest = vertices, edges, None, None
        return g

    # -- persistence helpers -------------------------------------------
    def cache(self) -> "SparkLabeledGraph":
        """Persist both frames and build :meth:`core_forest`: the graph is
        then ready to serve queries, and each Spark G0 on it is a lookup
        plus one collect. The per-graph cost (the coreness fixpoint and
        the forest) is paid here, not inside whichever query comes first.
        """
        self.vertices = self.vertices.cache()
        self.edges = self.edges.cache()
        self.core_forest()
        return self

    # -- relational views ----------------------------------------------
    def symmetric_edges(self) -> DataFrame:
        """Both orientations: (id, nbr) — the adjacency relation."""
        e = self.edges
        return e.select(F.col("src").alias("id"), F.col("dst").alias("nbr")).unionAll(
            e.select(F.col("dst").alias("id"), F.col("src").alias("nbr"))
        )

    def degrees(self) -> DataFrame:
        """(id, degree) for every vertex, including isolated ones (0)."""
        d = self.symmetric_edges().groupBy("id").agg(F.count("*").alias("degree"))
        return (
            self.vertices.select("id")
            .join(d, "id", "left")
            .select("id", F.coalesce("degree", F.lit(0)).alias("degree"))
        )

    # -- derived graphs -------------------------------------------------
    def induced(self, keep_ids: DataFrame) -> "SparkLabeledGraph":
        """Induced subgraph on the ``id`` column of ``keep_ids``."""
        ids = keep_ids.select("id").distinct()
        return SparkLabeledGraph._of(
            self.vertices.join(ids, "id", "semi"),
            self.edges.join(ids.withColumnRenamed("id", "src"), "src", "semi")
            .join(ids.withColumnRenamed("id", "dst"), "dst", "semi"),
        )

    def homogeneous(self) -> "SparkLabeledGraph":
        """All vertices, with only the edges whose endpoints share a label.

        Label groups are disconnected from each other in this graph, so
        one pass of a graph algorithm over it covers every label group.
        """
        v = self.vertices
        src = v.select(F.col("id").alias("src"), F.col("label").alias("ls"))
        dst = v.select(F.col("id").alias("dst"), F.col("label").alias("ld"))
        e = (
            self.edges.join(src, "src")
            .join(dst, "dst")
            .where(F.col("ls") == F.col("ld"))
            .select("src", "dst")
        )
        return SparkLabeledGraph._of(v, e)

    def label_coreness(self) -> DataFrame:
        """(id, label, coreness): each vertex's coreness within its own
        label group, the BCindex's first component.

        One H-index fixpoint over :meth:`homogeneous`, run on first use
        and kept (materialised) on this instance; derived graphs
        (``induced``, ``homogeneous``) start without it.
        """
        if self._label_core is None:
            self._label_core = (
                self.vertices.join(coreness(self.homogeneous()), "id")
                .select("id", "label", "coreness")
                .localCheckpoint(eager=True)
            )
        return self._label_core

    def core_forest(self) -> CoreForest:
        """The per-label core forest (:class:`~repro.local.forest.CoreForest`)
        of this graph, built on the driver by :meth:`cache` (or on first
        use) and kept on this instance like :meth:`label_coreness`.

        Collects ``(id, label, coreness)`` once, then streams the
        homogeneous edges with ``w = min`` of their endpoints' coreness,
        sorted by descending ``w``, through ``toLocalIterator``: the
        driver holds one partition of edges at a time.
        """
        if self._forest is None:
            core = self.label_coreness()
            rows = core.collect()
            delta = {r["id"]: r["coreness"] for r in rows}
            labels = {r["id"]: r["label"] for r in rows}
            ends = [
                core.select(
                    F.col("id").alias(end),
                    F.col("label").alias(f"l_{end}"),
                    F.col("coreness").alias(f"c_{end}"),
                )
                for end in ("src", "dst")
            ]
            hom = (
                self.edges.join(ends[0], "src")
                .join(ends[1], "dst")
                .where(F.col("l_src") == F.col("l_dst"))
                .select("src", "dst", F.least("c_src", "c_dst").alias("w"))
                .orderBy(F.desc("w"))
            )
            self._forest = CoreForest(
                delta, labels, ((r[0], r[1], r[2]) for r in hom.toLocalIterator())
            )
        return self._forest

    def cross_edges(self, label_a: str, label_b: str) -> DataFrame:
        """Heterogeneous edges between two label groups as (left, right).

        ``left`` always carries ``label_a`` and ``right`` ``label_b``.
        """
        v = self.vertices
        a = v.where(F.col("label") == label_a).select(F.col("id").alias("a_id"))
        b = v.where(F.col("label") == label_b).select(F.col("id").alias("b_id"))
        e = self.symmetric_edges()
        return (
            e.join(a, e.id == a.a_id, "inner")
            .join(b, e.nbr == b.b_id, "inner")
            .select(F.col("id").alias("left"), F.col("nbr").alias("right"))
            .distinct()
        )

    # -- materialisation ------------------------------------------------
    def num_vertices(self) -> int:
        return self.vertices.count()

    def num_edges(self) -> int:
        return self.edges.count()

    def to_local(self) -> LocalGraph:
        """Collect to the driver-local representation (candidate graphs only)."""
        vdf = self.vertices.toPandas()
        edf = self.edges.toPandas()
        return LocalGraph.from_pandas(vdf, edf)

    def to_pandas(self) -> Tuple[pd.DataFrame, pd.DataFrame]:
        return (
            self.vertices.toPandas().sort_values("id").reset_index(drop=True),
            self.edges.toPandas().sort_values(["src", "dst"]).reset_index(drop=True),
        )
