"""Evaluation harness: metrics, query generation, dataset registry,
experiment runners (small smoke configurations)."""
import pytest

from repro.eval.datasets import ALL_PARAMS, DATASET_PARAMS, PAPER_NAME, PAPER_TABLE3, load
from repro.eval.experiments import (
    run_breakdown,
    run_mbcc,
    run_param_sweep,
    run_quality_efficiency,
)
from repro.eval.metrics import f1_score, mean, precision, recall
from repro.eval.queries import community_query_pairs, degree_threshold
from repro.eval.tables import markdown_table, table4_markdown


# -- metrics ------------------------------------------------------------

def test_precision_recall_f1():
    found, truth = {1, 2, 3, 4}, {3, 4, 5, 6}
    assert precision(found, truth) == 0.5
    assert recall(found, truth) == 0.5
    assert f1_score(found, truth) == 0.5


def test_f1_perfect_and_empty():
    assert f1_score({1, 2}, {1, 2}) == 1.0
    assert f1_score(set(), {1}) == 0.0
    assert f1_score({1}, set()) == 0.0


def test_f1_asymmetric():
    assert f1_score({1}, {1, 2, 3}) == pytest.approx(0.5)


def test_mean():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert mean([]) == 0.0


# -- datasets -----------------------------------------------------------

def test_registry_covers_paper_table3():
    assert set(PAPER_NAME.keys()) == set(DATASET_PARAMS.keys())
    paper_names = {r[0] for r in PAPER_TABLE3}
    assert set(PAPER_NAME.values()) == paper_names


def test_load_caches():
    a = load("baidu1_lite")
    b = load("baidu1_lite")
    assert a is b


def test_load_unknown():
    with pytest.raises(KeyError):
        load("nope")


def test_all_datasets_generate():
    for name in ALL_PARAMS:
        pg = load(name)
        assert len(pg.communities) > 0
        assert len(pg.vertices) > 0


# -- queries ------------------------------------------------------------

def test_degree_threshold():
    pg = load("baidu1_lite")
    g = pg.to_local()
    thr = degree_threshold(g, 0.8)
    n_above = sum(1 for v in g.adj if g.degree(v) >= thr)
    assert n_above >= 0.15 * len(g)  # roughly the top 20%


def test_query_pairs_have_distinct_labels():
    pg = load("dblp_lite")
    g = pg.to_local()
    for cid, Q in community_query_pairs(pg, g, n=10, seed=0):
        assert len(Q) == 2
        assert g.label(Q[0]) != g.label(Q[1])
        assert set(Q) <= pg.communities[cid]


def test_query_pairs_inter_distance_default():
    from repro.local.bfs import bfs_distances

    pg = load("dblp_lite")
    g = pg.to_local()
    qs = community_query_pairs(pg, g, n=8, inter_dist=1, seed=0)
    close = sum(
        1 for _, (a, b) in qs if bfs_distances(g, a).get(b, 99) <= 2
    )
    assert close >= len(qs) * 0.7  # mostly adjacent or near-adjacent


def test_query_pairs_multilabel():
    pg = load("baidu1_m3_lite")
    g = pg.to_local()
    for cid, Q in community_query_pairs(pg, g, n=5, m=3, seed=0):
        assert len(Q) == 3
        assert len({g.label(q) for q in Q}) == 3


def test_query_pairs_deterministic():
    pg = load("dblp_lite")
    g = pg.to_local()
    a = community_query_pairs(pg, g, n=6, seed=3)
    b = community_query_pairs(pg, g, n=6, seed=3)
    assert a == b


# -- experiment runners (smoke) ----------------------------------------

def test_run_quality_efficiency_smoke():
    rows = run_quality_efficiency(
        "baidu1_lite", methods=("LP-BCC", "PSA"), n_queries=3
    )
    assert {r["method"] for r in rows} == {"LP-BCC", "PSA"}
    for r in rows:
        assert 0.0 <= r["f1"] <= 1.0
        assert r["time_s"] >= 0.0
        assert r["n_queries"] == 3


def test_run_breakdown_smoke():
    bd = run_breakdown("baidu1_lite", n_queries=3)
    assert set(bd) == {"Online-BCC", "LP-BCC", "speedup"}
    assert bd["Online-BCC"]["butterfly_counting"] >= 1


def test_run_param_sweep_smoke():
    rows = run_param_sweep("baidu1_lite", n_queries=2)
    assert {r["param"] for r in rows} == {"k", "b"}


def test_run_mbcc_smoke():
    rows = run_mbcc(
        "baidu1_m{m}_lite", ms=(2,), methods=("L2P-BCC",), n_queries=2
    )
    assert rows[0]["m"] == 2
    assert rows[0]["method"] == "L2P-BCC"


# -- table formatting ---------------------------------------------------

def test_markdown_table():
    md = markdown_table(["a", "b"], [(1, 2.5), ("x", "y")])
    lines = md.splitlines()
    assert lines[0] == "| a | b |"
    assert "2.500" in lines[2]
    assert len(lines) == 4


def test_table4_markdown():
    bd = run_breakdown("baidu1_lite", n_queries=2)
    md = table4_markdown(bd)
    assert "#butterfly counting" in md
    assert "Speedup" in md
