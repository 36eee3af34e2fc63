"""Shared Spark graph fixtures for the distributed-tier tests.

Session-scoped so the (expensive) Spark materialisation happens once:
the Figure-3 paper graph and one small planted-community graph cover
all distributed/local cross-checks.

Every test that requests the ``spark`` fixture (directly or through
another fixture) is marked ``spark``, so ``pytest -m "not spark"`` runs
the driver-local tests alone.
"""
import pytest

from repro.graphlib.labeled import SparkLabeledGraph
from repro.synth_graphs import figure3_graph, planted_bcc_graph


def pytest_collection_modifyitems(items):
    for item in items:
        if "spark" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.spark)


@pytest.fixture(scope="session")
def fig3_local():
    return figure3_graph()


@pytest.fixture(scope="session")
def fig3_spark(spark, fig3_local):
    return SparkLabeledGraph.from_local(spark, fig3_local).cache()


@pytest.fixture(scope="session")
def planted_small():
    return planted_bcc_graph(
        n_communities=3, group_size=(5, 7), n_background=15, seed=42
    )


@pytest.fixture(scope="session")
def planted_small_local(planted_small):
    return planted_small.to_local()


@pytest.fixture(scope="session")
def planted_small_spark(spark, planted_small):
    return SparkLabeledGraph(*planted_small.to_spark(spark)).cache()
