"""k-truss decomposition (substrate for the CTC baseline)."""
import pytest

from repro.local.graph import LocalGraph
from repro.local.truss import edge_support, max_truss_containing, trussness

from tests.helpers import brute_in_ktruss, random_labeled_graph


def k4_plus_tail() -> LocalGraph:
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)]
    return LocalGraph.from_edges(edges, {v: "A" for v in range(1, 6)})


def test_edge_support():
    g = k4_plus_tail()
    sup = edge_support(g)
    assert sup[(1, 2)] == 2  # triangles 123, 124
    assert sup[(4, 5)] == 0


def test_trussness_k4():
    g = k4_plus_tail()
    t = trussness(g)
    for e in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        assert t[e] == 4
    assert t[(4, 5)] == 2


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [3, 4])
def test_trussness_matches_bruteforce(seed, k):
    g = random_labeled_graph(18, 0.35, seed=seed)
    t = trussness(g)
    ref_edges = brute_in_ktruss(g, k)
    assert {e for e, kv in t.items() if kv >= k} == ref_edges


def test_max_truss_containing():
    g = k4_plus_tail()
    k, sub = max_truss_containing(g, {1, 2})
    assert k == 4 and sub.vertices == {1, 2, 3, 4}
    assert sub.num_edges() == 6
    k, sub = max_truss_containing(g, {1, 5})
    assert k == 2 and {1, 5} <= sub.vertices


def test_max_truss_disconnected_queries():
    g = LocalGraph.from_edges(
        [(1, 2), (2, 3), (1, 3), (10, 11), (11, 12), (10, 12)],
        {v: "A" for v in [1, 2, 3, 10, 11, 12]},
    )
    k, sub = max_truss_containing(g, {1, 10})
    assert len(sub) == 0 and k == 1


def test_trussness_triangle_free():
    g = LocalGraph.from_edges([(1, 2), (2, 3), (3, 4)], {v: "A" for v in range(1, 5)})
    assert set(trussness(g).values()) == {2}
