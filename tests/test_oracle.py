"""The DuckDB result-equality oracle itself, exercised over the vertex
and edge frames of the Figure-3 graph — including negative cases (a
wrong Spark result must be caught, not waved through)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def vertices(fig3_spark):
    return fig3_spark.vertices


@pytest.fixture(scope="module")
def edges(fig3_spark):
    return fig3_spark.edges


def test_aggregate_equivalence(vertices):
    got = vertices.groupBy("label").agg(
        F.sum("id").alias("ids"), F.count("*").alias("n")
    )
    assert_equivalent(
        got,
        "SELECT label, SUM(id) AS ids, COUNT(*) AS n FROM vertices GROUP BY label",
        vertices=vertices,
    )


def test_join_equivalence(vertices, edges):
    got = (
        edges.join(vertices, edges.src == vertices.id)
        .groupBy("label")
        .agg(F.count("*").alias("n"))
    )
    assert_equivalent(
        got,
        """SELECT label, COUNT(*) AS n
           FROM edges JOIN vertices ON src = id
           GROUP BY label""",
        vertices=vertices,
        edges=edges,
    )


def test_oracle_catches_wrong_float_result(vertices):
    # note: the oracle compares floats with assert_frame_equal's default
    # relative tolerance (1e-5), so the perturbation must exceed it —
    # real planner bugs (dropped rows, wrong join) do by orders of magnitude
    wrong = vertices.groupBy("label").agg((F.avg("id") * 1.01).alias("m"))
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT label, AVG(id) AS m FROM vertices GROUP BY label",
            vertices=vertices,
        )


def test_oracle_catches_wrong_count(vertices):
    wrong = vertices.groupBy("label").agg((F.count("*") + 1).alias("n"))
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT label, COUNT(*) AS n FROM vertices GROUP BY label",
            vertices=vertices,
        )


def test_oracle_catches_missing_group(vertices):
    wrong = vertices.where(F.col("label") != "A").groupBy("label").agg(
        F.count("*").alias("n")
    )
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT label, COUNT(*) AS n FROM vertices GROUP BY label",
            vertices=vertices,
        )


def test_oracle_catches_column_mismatch(vertices):
    got = vertices.groupBy("label").agg(F.count("*").alias("cnt"))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(
            got,
            "SELECT label, COUNT(*) AS n FROM vertices GROUP BY label",
            vertices=vertices,
        )


def test_oracle_accepts_pandas_tables(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    got = spark.createDataFrame(pdf).groupBy("k").agg(F.sum("v").alias("s"))
    assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)
