"""Algorithm 5 — incremental query-distance updates.

Includes the paper's Example 4 literally (Figure-3 graph, deleting u9)
and randomized equivalence against full BFS recomputation.
"""
import numpy as np
import pytest

from repro.core.fastdist import fast_update
from repro.local.bfs import INF, bfs_distances
from repro.synth_graphs import FIG3_IDS, figure3_graph

from tests.helpers import random_labeled_graph

I = FIG3_IDS


def test_example4_ql_no_updates():
    """Deleting u9 (the farthest vertex) leaves all distances to q_l
    unchanged: S_u is empty."""
    g = figure3_graph()
    old = bfs_distances(g, I["q_l"])
    dist = dict(old)
    g.remove_vertex(I["u9"])
    n_updated = fast_update(g, dist, [I["u9"]])
    assert n_updated == 0
    assert dist == {v: d for v, d in old.items() if v != I["u9"]}


def test_example4_qr_updates_u4_u7():
    """For q_r, d_min = 1; u4 and u7 move from distance 2 to 3."""
    g = figure3_graph()
    dist = bfs_distances(g, I["q_r"])
    g.remove_vertex(I["u9"])
    fast_update(g, dist, [I["u9"]])
    assert dist[I["u4"]] == 3
    assert dist[I["u7"]] == 3
    # everything else as in Table 2's "after deletion" row
    assert dist == bfs_distances(g, I["q_r"])


@pytest.mark.parametrize("seed", range(10))
def test_matches_full_recompute_random(seed):
    rng = np.random.default_rng(seed)
    g = random_labeled_graph(40, 0.12, seed=seed)
    src = int(sorted(g.vertices)[0])
    dist = bfs_distances(g, src)
    for _ in range(4):
        alive = sorted(g.vertices - {src})
        if not alive:
            break
        batch = [int(v) for v in rng.choice(alive, size=min(4, len(alive)), replace=False)]
        g.remove_vertices(batch)
        fast_update(g, dist, batch)
        assert dist == bfs_distances(g, src), f"diverged after deleting {batch}"


def test_deleting_unreachable_is_noop():
    g = random_labeled_graph(10, 0.0, seed=0)  # edgeless
    src = 0
    dist = bfs_distances(g, src)
    g.remove_vertex(5)
    n = fast_update(g, dist, [5])
    assert n == 0
    assert 5 not in dist


def test_vertices_can_become_unreachable():
    # path 0-1-2: deleting 1 leaves 2 unreachable
    from repro.local.graph import LocalGraph

    g = LocalGraph.from_edges([(0, 1), (1, 2)], {0: "A", 1: "A", 2: "A"})
    dist = bfs_distances(g, 0)
    g.remove_vertex(1)
    fast_update(g, dist, [1])
    assert dist[2] == INF
    assert dist[0] == 0


def test_batch_deletion():
    g = random_labeled_graph(30, 0.15, seed=3)
    src = int(sorted(g.vertices)[0])
    dist = bfs_distances(g, src)
    batch = sorted(g.vertices - {src})[:8]
    g.remove_vertices(batch)
    fast_update(g, dist, batch)
    assert dist == bfs_distances(g, src)
