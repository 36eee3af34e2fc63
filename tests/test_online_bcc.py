"""Algorithm 1 — Online-BCC greedy search."""
import time

import pytest

from repro.core import default_ks, is_bcc, lp_bcc, online_bcc
from repro.core.engine import RefinementEngine
from repro.core.g0 import find_g0_local
from repro.local.bfs import diameter
from repro.synth_graphs import FIG3_IDS, figure2_graph, figure3_graph, planted_bcc_graph

I = FIG3_IDS


def test_figure2_exact_answer():
    """Example 3: the (4,3,1)-BCC for Q={q_l, q_r} is Figure 2's H."""
    g = figure2_graph()
    res = online_bcc(g, [0, 10], [4, 3], 1)
    assert res is not None
    assert res.vertices == {0, 1, 2, 3, 4, 5, 10, 11, 12, 13}
    assert is_bcc(res.graph, [0, 10], [4, 3], 1)


def test_result_always_verifies():
    pg = planted_bcc_graph(n_communities=5, n_background=40, seed=1)
    g = pg.to_local()
    for cid in range(3):
        ql, qr = pg.leaders[cid][0][0], pg.leaders[cid][1][0]
        ks = default_ks(g, [ql, qr])
        res = online_bcc(g, [ql, qr], ks, 1)
        assert res is not None
        assert is_bcc(res.graph, [ql, qr], ks, 1)
        assert {ql, qr} <= res.vertices


def test_infeasible_returns_none():
    g = figure2_graph()
    assert online_bcc(g, [0, 10], [4, 3], 99) is None
    assert online_bcc(g, [0, 10], [9, 9], 1) is None


def test_queries_never_deleted_by_distance():
    g = figure3_graph()
    res = online_bcc(g, [I["q_l"], I["q_r"]], [2, 2], 1)
    assert res is not None
    assert I["q_l"] in res.vertices and I["q_r"] in res.vertices


def test_qdist_is_correct_for_result():
    g = figure2_graph()
    res = online_bcc(g, [0, 10], [4, 3], 1)
    from repro.local.bfs import query_distances

    qd = query_distances(res.graph, [0, 10])
    assert max(qd.values()) == res.qdist


def test_deterministic():
    pg = planted_bcc_graph(n_communities=4, seed=5)
    g = pg.to_local()
    ql, qr = pg.leaders[0][0][0], pg.leaders[0][1][0]
    ks = default_ks(g, [ql, qr])
    a = online_bcc(g, [ql, qr], ks, 1)
    b = online_bcc(g, [ql, qr], ks, 1)
    assert a.vertices == b.vertices and a.qdist == b.qdist


def test_input_graph_unmodified():
    g = figure2_graph()
    n_v, n_e = len(g), g.num_edges()
    online_bcc(g, [0, 10], [4, 3], 1)
    assert len(g) == n_v and g.num_edges() == n_e


def test_result_no_larger_than_g0():
    pg = planted_bcc_graph(n_communities=6, homo_noise_frac=0.05, seed=2)
    g = pg.to_local()
    ql, qr = pg.leaders[0][0][0], pg.leaders[0][1][0]
    ks = default_ks(g, [ql, qr])
    g0 = find_g0_local(g, [ql, qr], ks, 1).graph
    res = online_bcc(g, [ql, qr], ks, 1)
    assert res.vertices <= g0.vertices


def test_engine_stats_populated():
    g = figure2_graph()
    res = online_bcc(g, [0, 10], [4, 3], 1)
    for key in ("qdist_time", "leader_time", "butterfly_counting", "iterations", "total_time", "g0_time"):
        assert key in res.stats
    assert res.stats["butterfly_counting"] >= 1
    assert res.stats["iterations"] >= 1


def test_diameter_shrinks_or_equal_vs_g0():
    pg = planted_bcc_graph(n_communities=6, homo_noise_frac=0.06, seed=7)
    g = pg.to_local()
    ql, qr = pg.leaders[1][0][0], pg.leaders[1][1][0]
    ks = default_ks(g, [ql, qr])
    cand = find_g0_local(g, [ql, qr], ks, 1)
    res = online_bcc(g, [ql, qr], ks, 1)
    if res is not None and cand is not None and cand.graph.connected([ql, qr]):
        assert diameter(res.graph) <= max(diameter(cand.graph), 1)



@pytest.mark.parametrize("search", [online_bcc, lp_bcc])
def test_total_time_covers_engine_construction(monkeypatch, search):
    """``total_time`` is the wall time of the entry-point call, so time
    spent building the engine is in it."""
    init = RefinementEngine.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(0.05)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RefinementEngine, "__init__", slow_init)
    res = search(figure2_graph(), [0, 10], [4, 3], 1)
    assert res.stats["total_time"] >= 0.05
    assert res.stats["total_time"] >= res.stats["g0_time"]
