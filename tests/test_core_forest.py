"""The per-label core forest (driver-local): every forest component
equals the BFS core component of Algorithm 2, and the DFS slices nest."""
import pytest

from repro.core.g0 import _core_component
from repro.eval.datasets import load
from repro.eval.queries import community_query_pairs
from repro.local.forest import CoreForest, UnionFind
from repro.local.kcore import label_coreness
from repro.synth_graphs import figure2_graph, figure3_graph

from tests.helpers import local_core_forest, random_labeled_graph


def _assert_forest_matches(g, queries):
    """``component(q, k)`` is ``q``'s BFS core component for every
    ``1 <= k <= delta(q)``, and every node's slice is its subtree's
    vertices, nested in its parent's slice."""
    forest = local_core_forest(g)
    core = label_coreness(g)
    for q in queries:
        for k in range(1, core[q] + 1):
            comp = forest.component(q, k)
            assert len(comp) == len(set(comp))
            assert set(comp) == _core_component(g, core, q, k), (q, k)
        assert forest.component(q, core[q] + 1) == []
    assert sorted(forest.order) == sorted(g.vertices)
    subtree = [set() for _ in forest.level]
    for v, x in forest.leaf.items():
        while x >= 0:
            subtree[x].add(v)
            x = forest.parent[x]
    for x, p in enumerate(forest.parent):
        assert set(forest.order[forest.lo[x] : forest.hi[x]]) == subtree[x]
        if p >= 0:
            assert forest.lo[p] <= forest.lo[x] < forest.hi[x] <= forest.hi[p]
            assert forest.level[p] < forest.level[x]


@pytest.mark.parametrize("make", [figure2_graph, figure3_graph], ids=["fig2", "fig3"])
def test_forest_matches_bfs_paper_figures(make):
    g = make()
    _assert_forest_matches(g, g.vertices)


@pytest.mark.parametrize("seed", range(20))
def test_forest_matches_bfs_random(seed):
    g = random_labeled_graph(30 + seed, 0.15 + 0.01 * seed, ("A", "B", "C"), seed=seed)
    _assert_forest_matches(g, g.vertices)


def test_forest_matches_bfs_dblp_queries():
    pg = load("dblp_bd_lite")
    g = pg.to_local()
    queries = [q for _, Q in community_query_pairs(pg, g, n=20, seed=0) for q in Q]
    assert len(queries) == 40
    _assert_forest_matches(g, queries)


def test_forest_rejects_unsorted_edges():
    core = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2}
    labels = dict.fromkeys(core, "A")
    edges = [(1, 2, 1), (3, 4, 2), (4, 5, 2), (3, 5, 2)]
    with pytest.raises(ValueError):
        CoreForest(core, labels, edges)


def test_union_find_counts_sets():
    uf = UnionFind(range(4))
    assert uf.sets == 4
    assert uf.union(0, 1) == uf.find(1)
    uf.union(1, 0)
    uf.union(2, 3)
    assert uf.sets == 2 and uf.find(0) != uf.find(3)
    uf.union(3, 0)
    assert uf.sets == 1 and len({uf.find(x) for x in range(4)}) == 1
