"""BCC model verification (Definitions 4, 7, 8)."""
import pytest

from repro.core.model import BCCResult, cross_bipartite, is_bcc, pair_satisfied
from repro.local.graph import LocalGraph
from repro.synth_graphs import figure2_graph


def figure2_bcc() -> LocalGraph:
    g = figure2_graph()
    return g.induced({0, 1, 2, 3, 4, 5, 10, 11, 12, 13})


def test_figure2_is_431_bcc():
    assert is_bcc(figure2_bcc(), [0, 10], [4, 3], 1)


def test_figure2_fails_higher_b():
    # the single butterfly cannot witness b = 2
    assert not is_bcc(figure2_bcc(), [0, 10], [4, 3], 2)


def test_figure2_fails_higher_k():
    assert not is_bcc(figure2_bcc(), [0, 10], [5, 3], 1)
    assert not is_bcc(figure2_bcc(), [0, 10], [4, 4], 1)


def test_whole_graph_not_bcc_extra_label():
    # figure2_graph contains a PM vertex: label set is not exactly 2
    g = figure2_graph()
    assert not is_bcc(g, [0, 10], [1, 1], 1)


def test_missing_query_fails():
    h = figure2_bcc()
    h.remove_vertex(0)
    assert not is_bcc(h, [0, 10], [4, 3], 1)


def test_disconnected_fails():
    g = LocalGraph.from_edges(
        [(0, 1), (10, 11)], {0: "A", 1: "A", 10: "B", 11: "B"}
    )
    assert not is_bcc(g, [0, 10], [1, 1], 0)


def test_same_label_queries_fail():
    h = figure2_bcc()
    assert not is_bcc(h, [0, 5], [4, 4], 1)


def test_core_condition_checked_per_group():
    # two triangles joined by one cross edge: groups are 2-cores, no butterfly
    g = LocalGraph.from_edges(
        [(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12), (0, 10)],
        {0: "A", 1: "A", 2: "A", 10: "B", 11: "B", 12: "B"},
    )
    assert is_bcc(g, [0, 10], [2, 2], 0)
    assert not is_bcc(g, [0, 10], [2, 2], 1)  # no butterfly
    assert not is_bcc(g, [0, 10], [3, 2], 0)  # core too weak


def test_pair_satisfied():
    g = figure2_bcc()
    va = g.vertices_with_label("SE")
    vb = g.vertices_with_label("UI")
    assert pair_satisfied(g, va, vb, 1)
    assert not pair_satisfied(g, va, vb, 2)


def test_cross_bipartite_edges():
    g = figure2_bcc()
    bp = cross_bipartite(
        g, g.vertices_with_label("SE"), g.vertices_with_label("UI")
    )
    cross = sum(len(bp.adj[v]) for v in bp.left)
    assert cross == 4  # exactly the butterfly's 4 edges


def test_mbcc_three_groups_path_connectivity():
    """m=3: groups A-B and B-C have butterflies, A-C does not — Def. 7
    cross-group connectivity still holds via the path through B."""
    edges = []
    labels = {}
    # three triangles A{0,1,2}, B{10,11,12}, C{20,21,22}
    for base, lab in [(0, "A"), (10, "B"), (20, "C")]:
        for i in range(3):
            labels[base + i] = lab
        edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
    # butterfly between A and B, and between B and C; nothing between A and C
    edges += [(0, 10), (0, 11), (1, 10), (1, 11)]
    edges += [(12, 20), (12, 21), (11, 20), (11, 21)]
    g = LocalGraph.from_edges(edges, labels)
    assert is_bcc(g, [0, 10, 20], [2, 2, 2], 1)
    # b=2 kills both pair interactions -> disconnected label graph
    assert not is_bcc(g, [0, 10, 20], [2, 2, 2], 2)


def test_bccresult_diameter():
    res = BCCResult(figure2_bcc(), [0, 10], 2.0)
    assert res.diameter() == 3
    assert res.vertices == {0, 1, 2, 3, 4, 5, 10, 11, 12, 13}
