"""Distributed BFS vs the local reference and the DuckDB recursive-CTE
oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphlib.bfs import bfs_distances
from repro.local.bfs import INF
from repro.local.bfs import bfs_distances as local_bfs
from repro.synth_graphs import FIG3_IDS

from tests.oracle import assert_equivalent

I = FIG3_IDS


def _adj_pandas(g_local) -> pd.DataFrame:
    rows = [(u, v) for u in g_local.adj for v in g_local.adj[u]]
    return pd.DataFrame(rows, columns=["id", "nbr"])


@pytest.mark.parametrize("src_name", ["q_l", "q_r", "u9"])
def test_bfs_matches_local(fig3_spark, fig3_local, src_name):
    src = I[src_name]
    got = {r["id"]: r["dist"] for r in bfs_distances(fig3_spark, [src]).collect()}
    ref = {v: d for v, d in local_bfs(fig3_local, src).items() if d != INF}
    assert got == ref


def test_bfs_oracle_recursive_cte(fig3_spark, fig3_local):
    src = I["q_l"]
    sdf = bfs_distances(fig3_spark, [src]).select("id", F.col("dist").cast("int").alias("dist"))
    assert_equivalent(
        sdf,
        f"""
        WITH RECURSIVE walk(id, dist) AS (
            SELECT CAST({src} AS BIGINT), 0
            UNION
            SELECT a.nbr, walk.dist + 1
            FROM walk JOIN adj a ON a.id = walk.id
            WHERE walk.dist < 15
        )
        SELECT id, CAST(MIN(dist) AS INT) AS dist FROM walk GROUP BY id
        """,
        adj=_adj_pandas(fig3_local),
    )


def test_bfs_multi_source(fig3_spark, fig3_local):
    srcs = [I["q_l"], I["q_r"]]
    got = {r["id"]: r["dist"] for r in bfs_distances(fig3_spark, srcs).collect()}
    ref_a = local_bfs(fig3_local, srcs[0])
    ref_b = local_bfs(fig3_local, srcs[1])
    for v in fig3_local.vertices:
        ref = min(ref_a[v], ref_b[v])
        assert got.get(v, INF) == (ref if ref != INF else got.get(v, INF))


def test_bfs_requires_source(fig3_spark):
    with pytest.raises(ValueError):
        bfs_distances(fig3_spark, [])


def test_bfs_unreachable_absent(spark):
    import pandas as pd

    from repro.graphlib.labeled import SparkLabeledGraph

    vdf = pd.DataFrame({"id": [1, 2, 3], "label": ["A", "A", "B"]})
    edf = pd.DataFrame({"src": [1], "dst": [2]})
    g = SparkLabeledGraph.from_pandas(spark, vdf, edf)
    assert {r["id"]: r["dist"] for r in bfs_distances(g, [1]).collect()} == {1: 0, 2: 1}
