"""Algorithm 5 — incremental query-distance updates over level buckets.

Includes the paper's Example 4 literally (Figure-3 graph, deleting u9)
and randomized equivalence against full BFS recomputation: after every
deletion batch the maintained distances equal a fresh BFS and every
vertex sits in exactly the bucket of its distance.
"""
import numpy as np
import pytest

from repro.core.fastdist import bucket_levels, fast_update
from repro.local.bfs import INF, bfs_distances
from repro.local.graph import LocalGraph
from repro.synth_graphs import FIG3_IDS, figure3_graph

from tests.helpers import random_labeled_graph

I = FIG3_IDS


def delete_and_check(g, src, dist, buckets, batch):
    """Delete ``batch``, run Algorithm 5, check it against a full BFS;
    returns the re-labeled vertices."""
    old = dict(dist)
    g.remove_vertices(batch)
    touched = fast_update(g, dist, buckets, batch)
    assert dist == bfs_distances(g, src), f"diverged after deleting {batch}"
    assert buckets == bucket_levels(dist), f"buckets diverged after deleting {batch}"
    assert {v for v in dist if dist[v] != old[v]} <= set(touched)
    return touched


def path_graph(n):
    return LocalGraph.from_edges([(i, i + 1) for i in range(n - 1)], {v: "A" for v in range(n)})


def test_example4_ql_no_updates():
    """Deleting u9 (the farthest vertex) leaves all distances to q_l
    unchanged: S_u is empty."""
    g = figure3_graph()
    old = bfs_distances(g, I["q_l"])
    dist = dict(old)
    buckets = bucket_levels(dist)
    g.remove_vertex(I["u9"])
    assert fast_update(g, dist, buckets, [I["u9"]]) == []
    assert dist == {v: d for v, d in old.items() if v != I["u9"]}
    assert buckets == bucket_levels(dist)


def test_example4_qr_updates_u4_u7():
    """For q_r, d_min = 1; u4 and u7 move from distance 2 to 3."""
    g = figure3_graph()
    dist = bfs_distances(g, I["q_r"])
    buckets = bucket_levels(dist)
    g.remove_vertex(I["u9"])
    fast_update(g, dist, buckets, [I["u9"]])
    assert dist[I["u4"]] == 3
    assert dist[I["u7"]] == 3
    # everything else as in Table 2's "after deletion" row
    assert dist == bfs_distances(g, I["q_r"])
    assert {I["u4"], I["u7"]} <= buckets[3]


@pytest.mark.parametrize("seed", range(10))
def test_matches_full_recompute_random(seed):
    rng = np.random.default_rng(seed)
    g = random_labeled_graph(40, 0.12, seed=seed)
    src = int(sorted(g.vertices)[0])
    dist = bfs_distances(g, src)
    buckets = bucket_levels(dist)
    for _ in range(4):
        alive = sorted(g.vertices - {src})
        if not alive:
            break
        batch = [int(v) for v in rng.choice(alive, size=min(4, len(alive)), replace=False)]
        delete_and_check(g, src, dist, buckets, batch)


@pytest.mark.parametrize("seed", range(10))
def test_random_batches_until_source_deleted(seed):
    """Batches on a sparse graph strand survivors at INF; the last batch
    takes the source itself, which leaves every survivor at INF."""
    rng = np.random.default_rng(100 + seed)
    g = random_labeled_graph(40, 0.06, seed=seed)
    src = int(sorted(g.vertices)[0])
    dist = bfs_distances(g, src)
    buckets = bucket_levels(dist)
    for _ in range(3):
        alive = sorted(g.vertices - {src})
        batch = [int(v) for v in rng.choice(alive, size=5, replace=False)]
        delete_and_check(g, src, dist, buckets, batch)
    delete_and_check(g, src, dist, buckets, [src, int(sorted(g.vertices - {src})[0])])
    assert set(buckets) == {INF}


def test_deleting_unreachable_is_noop():
    g = random_labeled_graph(10, 0.0, seed=0)  # edgeless
    src = 0
    dist = bfs_distances(g, src)
    buckets = bucket_levels(dist)
    g.remove_vertex(5)
    assert fast_update(g, dist, buckets, [5]) == []
    assert 5 not in dist
    assert buckets == bucket_levels(dist)


def test_vertices_can_become_unreachable():
    # path 0-1-2: deleting 1 leaves 2 unreachable
    g = LocalGraph.from_edges([(0, 1), (1, 2)], {0: "A", 1: "A", 2: "A"})
    dist = bfs_distances(g, 0)
    buckets = bucket_levels(dist)
    g.remove_vertex(1)
    fast_update(g, dist, buckets, [1])
    assert dist[2] == INF
    assert dist[0] == 0
    assert buckets == {0: {0}, INF: {2}}


def test_inf_survivors_stay_at_inf():
    """An INF survivor stays in the INF bucket across later batches,
    including one that deletes another INF vertex."""
    g = path_graph(6)
    dist = bfs_distances(g, 0)
    buckets = bucket_levels(dist)
    delete_and_check(g, 0, dist, buckets, [2])
    assert buckets[INF] == {3, 4, 5}
    assert delete_and_check(g, 0, dist, buckets, [4]) == []
    assert buckets == {0: {0}, 1: {1}, INF: {3, 5}}
    delete_and_check(g, 0, dist, buckets, [1])
    assert buckets == {0: {0}, INF: {3, 5}}


def test_source_deleted():
    g = path_graph(4)
    dist = bfs_distances(g, 0)
    buckets = bucket_levels(dist)
    assert sorted(delete_and_check(g, 0, dist, buckets, [0])) == [1, 2, 3]
    assert buckets == {INF: {1, 2, 3}}


def test_batch_deletion():
    g = random_labeled_graph(30, 0.15, seed=3)
    src = int(sorted(g.vertices)[0])
    dist = bfs_distances(g, src)
    buckets = bucket_levels(dist)
    delete_and_check(g, src, dist, buckets, sorted(g.vertices - {src})[:8])
