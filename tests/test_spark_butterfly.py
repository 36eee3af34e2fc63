"""Distributed butterfly counting vs local reference and DuckDB oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphlib.butterfly import butterfly_degrees
from repro.local.butterfly import Bipartite
from repro.local.butterfly import butterfly_degrees as local_butterfly

from tests.helpers import brute_butterfly_degrees, random_bipartite
from tests.oracle import assert_equivalent

#: the SQL twin of Algorithm-3-as-dataflow: wedge self-joins per side
BUTTERFLY_SQL = """
WITH e AS (SELECT DISTINCT "left" AS l, "right" AS r FROM cross_edges),
wl AS (
    SELECT a.l AS u, b.l AS w, COUNT(*) AS p
    FROM e a JOIN e b ON a.r = b.r AND a.l <> b.l
    GROUP BY a.l, b.l
),
wr AS (
    SELECT a.r AS u, b.r AS w, COUNT(*) AS p
    FROM e a JOIN e b ON a.l = b.l AND a.r <> b.r
    GROUP BY a.r, b.r
),
chi AS (
    SELECT u AS id, CAST(SUM(p * (p - 1) / 2) AS BIGINT) AS chi FROM wl GROUP BY u
    UNION ALL
    SELECT u AS id, CAST(SUM(p * (p - 1) / 2) AS BIGINT) AS chi FROM wr GROUP BY u
),
ids AS (
    SELECT l AS id FROM e UNION SELECT r FROM e
)
SELECT ids.id, COALESCE(chi.chi, 0) AS chi FROM ids LEFT JOIN chi USING (id)
"""


def _edges_df(spark, edges):
    return spark.createDataFrame(
        pd.DataFrame(edges, columns=["left", "right"])
    )


@pytest.mark.parametrize("seed", range(4))
def test_matches_bruteforce(spark, seed):
    left, right, edges = random_bipartite(6, 6, 0.5, seed=seed)
    if not edges:
        pytest.skip("empty bipartite draw")
    chi = {
        r["id"]: r["chi"]
        for r in butterfly_degrees(_edges_df(spark, edges)).collect()
    }
    ref = brute_butterfly_degrees(left, right, edges)
    # distributed result only covers edge endpoints
    for v, c in chi.items():
        assert c == ref[v]
    assert all(ref[v] == 0 for v in set(ref) - set(chi))


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_sql(spark, seed):
    left, right, edges = random_bipartite(7, 7, 0.45, seed=seed)
    df = _edges_df(spark, edges)
    assert_equivalent(butterfly_degrees(df), BUTTERFLY_SQL, cross_edges=df)


def test_cross_edges_of_fig3(fig3_spark, fig3_local):
    ce = fig3_spark.cross_edges("A", "B")
    chi = {r["id"]: r["chi"] for r in butterfly_degrees(ce).collect()}
    left = fig3_local.vertices_with_label("A")
    right = fig3_local.vertices_with_label("B")
    bp = Bipartite(
        left, right,
        [(u, v) for u in left for v in fig3_local.adj[u] if v in right],
    )
    ref = local_butterfly(bp)
    for v, c in chi.items():
        assert c == ref[v]


def test_empty_bipartite(spark):
    df = spark.createDataFrame([], "left long, right long")
    assert butterfly_degrees(df).count() == 0
