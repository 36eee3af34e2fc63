"""Smoke tests for the distributed job entrypoints (their run() functions)."""
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"
sys.path.insert(0, str(JOBS))


def test_table3_run(spark):
    import table3_stats

    rows = table3_stats.run(spark, datasets=["baidu1_lite"])
    assert len(rows) == 1
    r = rows[0]
    assert r["Network"] == "baidu1_lite"
    assert r["|V|"] > 0 and r["|E|"] > 0 and r["k_max"] > 0


def test_bcc_query_run(spark):
    import bcc_query

    res = bcc_query.run(spark, dataset="baidu1_lite", query_idx=0)
    assert res is not None
    assert len(res.vertices) > 0
    assert set(res.graph.labels) == res.vertices
