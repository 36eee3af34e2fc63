"""L²P-BCC — BCindex-based local exploration (Algorithm 8)."""
import pytest

from repro.core import InvalidQuery, build_bcindex_local, default_ks, is_bcc, l2p_bcc
from repro.core.l2p import butterfly_core_path, expand_candidate
from repro.local.graph import LocalGraph
from repro.synth_graphs import figure2_graph, planted_bcc_graph

from tests.test_query_contract import MALFORMED


def test_figure2_finds_the_bcc():
    g = figure2_graph()
    res = l2p_bcc(g, [0, 10], [4, 3], 1)
    assert res is not None
    assert res.vertices == {0, 1, 2, 3, 4, 5, 10, 11, 12, 13}
    assert is_bcc(res.graph, [0, 10], [4, 3], 1)


def test_auto_ks():
    """ks=None activates the automatic largest-coreness setting."""
    g = figure2_graph()
    res = l2p_bcc(g, [0, 10], None, 1)
    assert res is not None
    ks = res.stats["eff_ks"]
    assert is_bcc(res.graph, [0, 10], ks, 1)
    assert ks == [4, 3]  # the coreness of the queries on each side


def test_shared_index_reused():
    pg = planted_bcc_graph(n_communities=4, seed=3)
    g = pg.to_local()
    idx = build_bcindex_local(g)
    n_cached = len(idx.chi)
    ql, qr = pg.leaders[0][0][0], pg.leaders[0][1][0]
    res = l2p_bcc(g, [ql, qr], None, 1, index=idx)
    assert res is not None
    assert len(idx.chi) >= n_cached  # pair chi cached on the shared index
    res2 = l2p_bcc(g, [ql, qr], None, 1, index=idx)
    assert res2.vertices == res.vertices


def test_candidate_bounded_by_eta():
    pg = planted_bcc_graph(n_communities=8, homo_noise_frac=0.06, seed=4)
    g = pg.to_local()
    ql, qr = pg.leaders[0][0][0], pg.leaders[0][1][0]
    res = l2p_bcc(g, [ql, qr], None, 1, eta=50)
    if res is not None:
        # candidate may exceed eta by one BFS frontier, not by much
        assert res.stats["candidate_size"] <= 50 + 60


def test_missing_query_returns_none():
    g = figure2_graph()
    with pytest.raises(InvalidQuery, match="999"):
        l2p_bcc(g, [0, 999], [4, 3], 1)


def test_same_label_queries_return_none():
    g = figure2_graph()
    with pytest.raises(InvalidQuery, match="repeat a label"):
        l2p_bcc(g, [0, 5], [4, 4], 1)


def test_invalid_queries_build_no_index(monkeypatch):
    """Queries are validated before the whole-graph BCindex is built."""
    import repro.core.l2p as l2p

    def fail(g):
        raise AssertionError("BCindex built for an invalid query")

    monkeypatch.setattr(l2p, "build_bcindex_local", fail)
    g = figure2_graph()
    for queries, ks in MALFORMED.values():
        with pytest.raises(InvalidQuery):
            l2p.l2p_bcc(g, queries, ks, 1)


def test_path_prefers_high_coreness_route():
    """Two routes s->t: via a high-coreness vertex and via a low-coreness
    one; Def. 6's weight must pick the high-coreness route."""
    # labels: all 'A' except t 'B'; build coreness contrast with a clique
    edges = [
        # clique on {1,2,3,4} -> coreness 3
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        # s=0 connects via 1 (core 3) and via 9 (a pendant path, core 1)
        (0, 1), (0, 9), (9, 10),
        # both 1 and 9's path reach t=10? make t adjacent to 1 too
        (1, 10),
    ]
    labels = {v: "A" for v in [0, 1, 2, 3, 4, 9]}
    labels[10] = "B"
    g = LocalGraph.from_edges(edges, labels)
    idx = build_bcindex_local(g)
    chi = {v: 0 for v in g.vertices}
    p = butterfly_core_path(idx, chi, 0, set(g.vertices), 0, 10)
    assert p == [0, 1, 10]  # not [0, 9, 10]


def test_expand_candidate_respects_labels():
    pg = planted_bcc_graph(n_communities=3, n_labels=3, seed=5)
    g = pg.to_local()
    idx = build_bcindex_local(g)
    qs = [grp[0] for grp in pg.leaders[0]][:2]
    labels = [g.label(q) for q in qs]
    cand = expand_candidate(idx, qs, labels, eta=100)
    assert all(g.label(v) in set(labels) for v in cand)


@pytest.mark.parametrize("seed", range(4))
def test_l2p_quality_close_to_truth(seed):
    pg = planted_bcc_graph(n_communities=5, n_background=30, seed=seed)
    g = pg.to_local()
    ql, qr = pg.leaders[0][0][0], pg.leaders[0][1][0]
    res = l2p_bcc(g, [ql, qr], None, 1)
    assert res is not None
    gt = pg.communities[0]
    inter = len(res.vertices & gt)
    assert inter / len(gt) >= 0.5  # finds at least half the community
