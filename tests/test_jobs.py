"""Smoke tests for the distributed job entrypoints (their run() functions)."""
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"
sys.path.insert(0, str(JOBS))


def test_table3_run(spark):
    import table3_stats

    df = table3_stats.run(spark, datasets=["baidu1_lite"])
    rows = df.collect()
    assert len(rows) == 1
    r = rows[0].asDict()
    assert r["Network"] == "baidu1_lite"
    assert r["|V|"] > 0 and r["|E|"] > 0 and r["k_max"] > 0


def test_bcc_query_run(spark):
    import bcc_query

    df = bcc_query.run(spark, dataset="baidu1_lite", query_idx=0)
    rows = df.collect()
    assert len(rows) > 0
    assert {"id", "label"} <= set(df.columns)
