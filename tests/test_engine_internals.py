"""RefinementEngine internals and edge cases."""
import numpy as np
import pytest

from repro.core import default_ks
from repro.core.engine import PairState, RefinementEngine, farthest_layer
from repro.core.fastdist import bucket_levels
from repro.core.g0 import feasible_candidate, find_g0_local
from repro.local.bfs import INF, query_distances
from repro.local.butterfly import Bipartite, butterfly_degrees
from repro.local.graph import LocalGraph
from repro.synth_graphs import figure2_graph, planted_bcc_graph

from tests.helpers import random_labeled_graph


def fig2_engine(fast=False):
    return RefinementEngine(find_g0_local(figure2_graph(), [0, 10], [4, 3], 1), fast=fast)


def test_initial_pair_state_satisfied():
    eng = fig2_engine()
    assert len(eng.pairs) == 1
    assert eng.pairs[0].satisfied


def test_hdeg_initialised_correctly():
    eng = fig2_engine()
    for v in eng.g.adj:
        expect = sum(
            1 for u in eng.g.adj[v] if eng.g.labels[u] == eng.g.labels[v]
        )
        assert eng.hdeg[v] == expect


def test_delete_and_maintain_cascades():
    eng = fig2_engine()
    # deleting v1..v4 from the 4-core collapses the whole left side
    gone = eng._delete_and_maintain({1, 2, 3, 4})
    assert {1, 2, 3, 4} <= set(gone)
    assert 0 not in eng.g or eng.hdeg.get(0, 0) >= 0  # q_l peeled or consistent
    # hdeg stays consistent for survivors
    for v in eng.g.adj:
        expect = sum(
            1 for u in eng.g.adj[v] if eng.g.labels[u] == eng.g.labels[v]
        )
        assert eng.hdeg[v] == expect


def test_bipartite_kept_in_sync():
    eng = fig2_engine(fast=True)
    eng._delete_and_maintain({5})
    ps = eng.pairs[0]
    assert 5 not in ps.bp.adj
    # rebuilt-from-scratch chi equals engine bipartite chi
    chi = butterfly_degrees(ps.bp)
    for v, c in chi.items():
        assert v in eng.g


def test_fast_mode_leaders_assigned():
    eng = fig2_engine(fast=True)
    ps = eng.pairs[0]
    assert ps.leaders[0] is not None and ps.leaders[1] is not None
    assert ps.leader_chi[0] >= 1 and ps.leader_chi[1] >= 1


def test_online_mode_no_leaders():
    eng = fig2_engine(fast=False)
    assert eng.pairs[0].leaders == [None, None]


def test_run_twice_is_error_free_via_fresh_engines():
    a = fig2_engine().run()
    b = fig2_engine().run()
    assert a.vertices == b.vertices


def test_pairstate_side_vertices():
    bp = Bipartite([1], [2], [(1, 2)])
    ps = PairState(0, 1, bp)
    assert ps.side_vertices(0) == {1}
    assert ps.side_vertices(1) == {2}


def test_m3_pairs_without_cross_edges_skipped():
    pg = planted_bcc_graph(
        n_communities=2, n_labels=3, n_background=0, noise_frac=0.0, seed=1
    )
    g = pg.to_local()
    Q = [grp[0] for grp in pg.leaders[0]]
    cand = find_g0_local(g, Q, [2, 2, 2], 1)
    if cand is None:
        pytest.skip("no candidate for this draw")
    eng = RefinementEngine(cand)
    # pairs only exist for label pairs with cross edges (consecutive groups)
    assert 1 <= len(eng.pairs) <= 3


def test_snapshot_qdist_decreases_monotonically():
    pg = planted_bcc_graph(n_communities=5, homo_noise_frac=0.05, seed=11)
    g = pg.to_local()
    ql, qr = pg.leaders[0][0][0], pg.leaders[0][1][0]
    from repro.core import default_ks

    ks = default_ks(g, [ql, qr])
    cand = find_g0_local(g, [ql, qr], ks, 1)
    if cand is None:
        pytest.skip("no candidate")
    g0 = cand.graph
    eng = RefinementEngine(cand)
    res = eng.run()
    assert res is not None
    # the returned snapshot is at most the size of g0 and has qdist <=
    # g0's query distance
    from repro.local.bfs import query_distances

    if g0.connected([ql, qr]):
        qd0 = max(query_distances(g0, [ql, qr]).values())
        assert res.qdist <= qd0


def test_hdeg_counts_other_label_groups():
    """A vertex of a non-query label keeps its own homogeneous degree, so
    deleting its same-label neighbour does not fail."""
    cand = find_g0_local(figure2_graph(), [0, 10], [4, 3], 1)
    cand.graph.add_edge(500, 501, "C", "C")
    cand.graph.add_edge(500, 1, "C", cand.graph.label(1))
    eng = RefinementEngine(cand, fast=True)
    assert eng.hdeg[500] == eng.hdeg[501] == 1
    assert eng._delete_and_maintain({501}) == [501]
    assert eng.hdeg[500] == 0 and 500 in eng.g
    assert eng.run() is not None


def cut_off_candidate(seed):
    """A candidate whose deletion cascade cuts a query-free piece off.

    A dense random core holds the queries 0 (label A) and 1 (B). A ring of
    seven B vertices closes through two core B vertices; its middle vertex
    is the farthest from the queries, and with k_B = 2 deleting it peels
    the whole ring. A dense A blob hangs off the ring's first vertex by
    cross edges only, so it is cut off and sits at query distance INF.
    """
    rng = np.random.default_rng(seed)
    core = random_labeled_graph(12, 0.7, seed=seed)
    g = core.copy()
    b2, b3 = [v for v in sorted(core.vertices) if core.label(v) == "B"][1:3]
    ring = list(range(100, 107))
    path = [b2] + ring + [b3]
    for u, v in zip(path, path[1:]):
        g.add_edge(u, v, "B", "B")
    blob = list(range(200, 206))
    for i, u in enumerate(blob):
        for v in blob[i + 1:]:
            if rng.random() < 0.8:
                g.add_edge(u, v, "A", "A")
        g.add_edge(u, ring[0], "A", "B")
    return g, [0, 1], [2, 2]


def planted_candidate(seed):
    pg = planted_bcc_graph(n_communities=4, n_background=30, homo_noise_frac=0.1, seed=seed)
    g = pg.to_local()
    Q = [pg.leaders[0][0][0], pg.leaders[0][1][0]]
    ks = default_ks(g, Q)
    return find_g0_local(g, Q, ks, 1).graph, Q, ks


@pytest.mark.parametrize(
    "make, seed", [(cut_off_candidate, s) for s in range(4)] + [(planted_candidate, s) for s in range(4)]
)
def test_combined_top_layer_matches_full_bfs(make, seed):
    """LP mode's maintained qd, its buckets and their top layer equal a
    fresh Def.-5 computation after every deletion batch."""
    g0, Q, ks = make(seed)
    eng = RefinementEngine(feasible_candidate(g0, Q, ks, 1), fast=True)
    while all(q in eng.g for q in Q):
        dmax, layer = eng._farthest()
        full = query_distances(eng.g, Q)
        assert eng.qd == full
        assert eng.qd_levels == bucket_levels(full)
        assert (dmax, layer) == farthest_layer(full)
        S = layer - set(Q)
        if not S or dmax <= 0 or not layer.isdisjoint(Q):
            break
        eng._delete(S)


@pytest.mark.parametrize("seed", range(8))
def test_lp_equals_online_when_cascades_cut_off(seed):
    """The cut-off piece is peeled as the INF layer in both modes, and LP
    returns what Online does."""
    g0, Q, ks = cut_off_candidate(seed)
    lp = RefinementEngine(feasible_candidate(g0, Q, ks, 1), fast=True)
    layers = []
    farthest = lp._farthest

    def spy():
        layers.append(farthest())
        return layers[-1]

    lp._farthest = spy
    got = lp.run()
    want = RefinementEngine(feasible_candidate(g0, Q, ks, 1), fast=False).run()
    assert any(d == INF and layer.isdisjoint(Q) for d, layer in layers)
    assert got is not None and want is not None
    assert got.vertices == want.vertices
    assert got.qdist == want.qdist
    assert got.stats["iterations"] == want.stats["iterations"]
