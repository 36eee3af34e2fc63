"""Shared spark-submit plumbing for the distributed jobs/ entrypoints.

``table3_stats`` and ``bcc_query`` expose ``run(spark, ...)``, which
returns plain Python values, and a ``main()`` that builds the session
here when launched via ``spark-submit jobs/<name>.py``; the other jobs
run on the driver.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """Session for standalone job runs (pytest uses the conftest fixture)."""
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
