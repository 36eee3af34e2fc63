"""SparkLabeledGraph — the distributed graph representation.

Degrees are additionally checked against the DuckDB oracle (the same
aggregation expressed in SQL over the same edge table).
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphlib.labeled import SparkLabeledGraph
from repro.oracle import assert_equivalent

from tests.helpers import cross_edges, homogeneous_induced


def test_counts_match_local(fig3_spark, fig3_local):
    assert fig3_spark.num_vertices() == len(fig3_local)
    assert fig3_spark.num_edges() == fig3_local.num_edges()


def test_edges_canonicalised(spark):
    vdf = pd.DataFrame({"id": [1, 2, 3], "label": ["A", "A", "B"]})
    edf = pd.DataFrame({"src": [2, 1, 2, 3], "dst": [1, 1, 1, 9]})
    g = SparkLabeledGraph.from_pandas(spark, vdf, edf)
    rows = sorted((r["src"], r["dst"]) for r in g.edges.collect())
    # self loop dropped, duplicates collapsed, unknown endpoint 9 dropped
    assert rows == [(1, 2)]


def test_degrees_match_local(fig3_spark, fig3_local):
    deg = {r["id"]: r["degree"] for r in fig3_spark.degrees().collect()}
    assert deg == {v: fig3_local.degree(v) for v in fig3_local.vertices}


def test_degrees_oracle(fig3_spark, fig3_local):
    vdf, edf = fig3_local.to_pandas()
    assert_equivalent(
        fig3_spark.degrees(),
        """
        SELECT v.id, COALESCE(d.degree, 0) AS degree
        FROM vertices v LEFT JOIN (
            SELECT id, COUNT(*) AS degree FROM (
                SELECT src AS id FROM edges
                UNION ALL
                SELECT dst AS id FROM edges
            ) GROUP BY id
        ) d USING (id)
        """,
        vertices=vdf,
        edges=edf,
    )


def test_isolated_vertex_zero_degree(spark):
    vdf = spark.createDataFrame([(1, "A"), (2, "B")], "id long, label string")
    edf = spark.createDataFrame([], "src long, dst long")
    g = SparkLabeledGraph(vdf, edf)
    deg = {r["id"]: r["degree"] for r in g.degrees().collect()}
    assert deg == {1: 0, 2: 0}


def test_symmetric_edges_double(fig3_spark, fig3_local):
    assert fig3_spark.symmetric_edges().count() == 2 * fig3_local.num_edges()


def test_induced(fig3_spark, fig3_local, spark):
    keep = sorted(fig3_local.vertices)[:6]
    keep_df = spark.createDataFrame([(int(v),) for v in keep], "id long")
    sub = fig3_spark.induced(keep_df)
    loc = fig3_local.induced(set(keep))
    assert sub.num_vertices() == len(loc)
    assert sub.num_edges() == loc.num_edges()


def test_label_group(fig3_spark, fig3_local):
    """The homogeneous view keeps every vertex and exactly the edges of
    the label groups."""
    h = fig3_spark.homogeneous()
    assert h.num_vertices() == len(fig3_local)
    assert h.num_edges() == sum(
        homogeneous_induced(fig3_local, l).num_edges() for l in fig3_local.label_set()
    )


def test_cross_edges_match_local(fig3_spark, fig3_local):
    rows = {
        (r["left"], r["right"]) for r in fig3_spark.cross_edges("A", "B").collect()
    }
    # normalise: left column must carry label A
    expect = set()
    for u, v in cross_edges(fig3_local, "A", "B"):
        a, b = (u, v) if fig3_local.label(u) == "A" else (v, u)
        expect.add((a, b))
    assert rows == expect


def test_to_local_roundtrip(fig3_spark, fig3_local):
    back = fig3_spark.to_local()
    assert back.vertices == fig3_local.vertices
    assert sorted(back.edges()) == sorted(fig3_local.edges())
    assert back.labels == fig3_local.labels


def test_planted_roundtrip(planted_small_spark, planted_small_local):
    assert planted_small_spark.num_vertices() == len(planted_small_local)
    assert planted_small_spark.num_edges() == planted_small_local.num_edges()
