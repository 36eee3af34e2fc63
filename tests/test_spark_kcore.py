"""Distributed coreness vs the local reference."""
import pytest

from repro.graphlib.kcore import coreness, max_coreness
from repro.local.kcore import coreness as local_coreness
from repro.local.kcore import label_coreness


def test_coreness_matches_local_fig3(fig3_spark, fig3_local):
    got = {r["id"]: r["coreness"] for r in coreness(fig3_spark).collect()}
    assert got == local_coreness(fig3_local)


def test_coreness_matches_local_planted(planted_small_spark, planted_small_local):
    got = {r["id"]: r["coreness"] for r in coreness(planted_small_spark).collect()}
    assert got == local_coreness(planted_small_local)


def test_max_coreness(fig3_spark, fig3_local):
    assert max_coreness(fig3_spark) == max(local_coreness(fig3_local).values())


@pytest.mark.spark
@pytest.mark.parametrize("graph", ["fig3", "planted_small"])
def test_label_coreness_matches_local(request, graph):
    sg = request.getfixturevalue(f"{graph}_spark")
    g = request.getfixturevalue(f"{graph}_local")
    rows = sg.label_coreness().collect()
    assert {r["id"]: r["coreness"] for r in rows} == dict(label_coreness(g))
    assert {r["id"]: r["label"] for r in rows} == g.labels
