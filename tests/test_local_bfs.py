"""BFS distances, query distances and diameters (local tier)."""
import math

import pytest

from repro.local.bfs import INF, bfs_distances, diameter, query_distances
from repro.local.graph import LocalGraph

from tests.helpers import brute_all_pairs_dist, random_labeled_graph


def path_graph(n: int) -> LocalGraph:
    return LocalGraph.from_edges(
        [(i, i + 1) for i in range(n - 1)], {v: "A" for v in range(n)}
    )


def test_bfs_on_path():
    g = path_graph(5)
    d = bfs_distances(g, 0)
    assert d == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_bfs_unreachable_is_inf():
    g = LocalGraph.from_edges([(0, 1)], {0: "A", 1: "A", 2: "A"}, vertices=[0, 1, 2])
    d = bfs_distances(g, 0)
    assert d[2] == INF


def test_bfs_missing_source():
    g = path_graph(3)
    d = bfs_distances(g, 99)
    assert all(v == INF for v in d.values())


@pytest.mark.parametrize("seed", range(6))
def test_bfs_matches_floyd_warshall(seed):
    g = random_labeled_graph(20, 0.15, seed=seed)
    ref = brute_all_pairs_dist(g)
    for s in sorted(g.vertices)[:5]:
        d = bfs_distances(g, s)
        for v in g.vertices:
            assert d[v] == ref[s, v]


def test_query_distances_is_max_over_queries():
    g = path_graph(5)
    qd = query_distances(g, [0, 4])
    assert qd == {0: 4, 1: 3, 2: 2, 3: 3, 4: 4}


def test_query_distance_unreachable():
    g = LocalGraph.from_edges([(0, 1)], {0: "A", 1: "A", 2: "A"}, vertices=[0, 1, 2])
    qd = query_distances(g, [0])
    assert qd[2] == INF and qd[1] == 1


def test_eccentricity_and_diameter():
    g = path_graph(6)
    assert max(bfs_distances(g, 0).values()) == 5
    assert max(bfs_distances(g, 2).values()) == 3
    assert diameter(g) == 5


def test_diameter_restricted_to_subset():
    g = path_graph(6)
    # distance measured inside the full graph between subset vertices
    assert diameter(g, {0, 2}) == 2


@pytest.mark.parametrize("seed", range(4))
def test_diameter_matches_bruteforce(seed):
    g = random_labeled_graph(15, 0.3, seed=seed)
    ref = brute_all_pairs_dist(g)
    finite = [d for d in ref.values() if not math.isinf(d)]
    # restrict to the same component to make diameters comparable
    comp = g.component_of(sorted(g.vertices)[0])
    sub = g.induced(comp)
    refd = max(
        brute_all_pairs_dist(sub).values()
    )
    assert diameter(sub) == refd
