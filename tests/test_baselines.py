"""CTC and PSA baseline community-search models."""
import pytest

from repro.baselines import ctc, psa
from repro.core.engine import farthest_layer, greedy_peel
from repro.local.bfs import INF, query_distances
from repro.local.graph import LocalGraph
from repro.local.kcore import kcore_vertices
from repro.local.truss import trussness
from repro.synth_graphs import figure2_graph, planted_bcc_graph

from tests.helpers import old_ctc, old_psa, random_labeled_graph


def test_ctc_returns_connected_truss():
    g = figure2_graph()
    res = ctc(g, [0, 10])
    assert res is not None
    k = res.stats["k_truss"]
    assert k >= 2
    assert res.graph.connected([0, 10])
    # every edge of the answer has support >= k-2 within the answer
    t = trussness(res.graph)
    assert all(kv >= k for kv in t.values())


def test_ctc_ignores_labels():
    """CTC may freely mix labels — it is label-blind by design."""
    g = figure2_graph()
    res = ctc(g, [0, 5])  # two SE vertices: fine for CTC
    assert res is not None
    assert {0, 5} <= res.vertices


def test_ctc_disconnected_queries():
    g = LocalGraph.from_edges(
        [(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)],
        {v: "A" for v in [0, 1, 2, 10, 11, 12]},
    )
    assert ctc(g, [0, 10]) is None


def test_ctc_shrinks_toward_queries():
    pg = planted_bcc_graph(n_communities=4, seed=1)
    g = pg.to_local()
    ql, qr = pg.leaders[0][0][0], pg.leaders[0][1][0]
    res = ctc(g, [ql, qr])
    assert res is not None
    assert {ql, qr} <= res.vertices
    assert len(res.vertices) < len(g)


def test_psa_returns_connected_kcore():
    g = figure2_graph()
    res = psa(g, [0, 10])
    assert res is not None
    k = res.stats["k_core"]
    assert all(len(res.graph.adj[v]) >= k for v in res.graph.adj)
    assert res.graph.connected([0, 10])


def test_psa_explicit_k():
    g = figure2_graph()
    res = psa(g, [0, 10], k=3)
    assert res is not None
    assert res.stats["k_core"] == 3
    assert all(len(res.graph.adj[v]) >= 3 for v in res.graph.adj)


def test_psa_default_k_is_min_query_coreness():
    from repro.local.kcore import coreness

    g = figure2_graph()
    c = coreness(g)
    res = psa(g, [0, 10])
    assert res.stats["k_core"] == min(c[0], c[10])


def test_psa_infeasible_k():
    g = figure2_graph()
    assert psa(g, [0, 10], k=50) is None


def test_psa_missing_query():
    g = figure2_graph()
    assert psa(g, [0, 999]) is None


@pytest.mark.parametrize("seed", range(4))
def test_baselines_on_random_graphs(seed):
    g = random_labeled_graph(30, 0.25, seed=seed)
    vs = sorted(g.component_of(sorted(g.vertices)[0]))
    if len(vs) < 4:
        pytest.skip("tiny component")
    q = [vs[0], vs[-1]]
    r1 = ctc(g, q)
    r2 = psa(g, q)
    if r1 is not None:
        assert set(q) <= r1.vertices
    if r2 is not None:
        assert set(q) <= r2.vertices


def test_baselines_smaller_than_whole_graph_on_planted():
    pg = planted_bcc_graph(n_communities=5, n_background=40, seed=2)
    g = pg.to_local()
    ql, qr = pg.leaders[1][0][0], pg.leaders[1][1][0]
    for fn in (ctc, psa):
        res = fn(g, [ql, qr])
        assert res is not None
        assert len(res.vertices) < len(g)


def _old_loop_cases():
    """(graph, queries) pairs: Figure 2, the random graphs of
    ``test_baselines_on_random_graphs`` and two planted graphs."""
    g = figure2_graph()
    yield "fig2", g, [0, 10]
    yield "fig2-same-label", g, [0, 5]
    for seed in range(4):
        g = random_labeled_graph(30, 0.25, seed=seed)
        vs = sorted(g.component_of(sorted(g.vertices)[0]))
        yield f"random{seed}", g, [vs[0], vs[-1]]
    for seed in (1, 2):
        pg = planted_bcc_graph(n_communities=5, n_background=40, seed=seed)
        yield f"planted{seed}", pg.to_local(), [pg.leaders[1][0][0], pg.leaders[1][1][0]]


@pytest.mark.parametrize("fn, old", [(ctc, old_ctc), (psa, old_psa)], ids=["ctc", "psa"])
def test_baselines_equal_old_loops(fn, old):
    """The shared greedy loop returns what each baseline's own loop did."""
    for name, g, q in _old_loop_cases():
        new, ref = fn(g, q), old(g, q)
        assert (new is None) == (ref is None), name
        if ref is not None:
            assert new.vertices == ref.vertices, name
            assert new.qdist == ref.qdist, name
            assert new.stats["iterations"] == ref.stats["iterations"], name


def _path_peel(n, queries, max_iterations=100):
    g = LocalGraph.from_edges([(i, i + 1) for i in range(n - 1)], {v: "A" for v in range(n)})

    def delete(S):
        g.remove_vertices(S)
        return True

    return greedy_peel(
        g, queries, lambda: farthest_layer(query_distances(g, queries)), delete,
        max_iterations=max_iterations,
    )


def test_greedy_peel_stops_at_max_iterations():
    # 0-1-2-3-4-5: peels 5, 4, 3, 2 one layer at a time, then stops at qd 1
    assert _path_peel(6, [0, 1]) == ({0, 1}, 1, 5)
    # capped: the first iteration records the whole path, then deletes 5
    assert _path_peel(6, [0, 1], max_iterations=1) == (set(range(6)), 5, 1)


def test_greedy_peel_disconnected_queries():
    g = LocalGraph.from_edges([(0, 1), (10, 11)], {v: "A" for v in [0, 1, 10, 11]})

    def delete(S):
        raise AssertionError("nothing to delete when the queries are cut off")

    assert greedy_peel(
        g, [0, 10], lambda: farthest_layer(query_distances(g, [0, 10])), delete,
        max_iterations=10,
    ) == (None, INF, 1)
