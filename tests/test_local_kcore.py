"""k-core extraction, maintenance, and coreness decomposition (local tier)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.local.graph import LocalGraph
from repro.local.kcore import coreness, kcore_vertices, peel_to_kcore

from tests.helpers import brute_coreness, random_labeled_graph


def triangle_plus_tail() -> LocalGraph:
    return LocalGraph.from_edges(
        [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)],
        {v: "A" for v in range(1, 6)},
    )


def test_kcore_vertices_simple():
    g = triangle_plus_tail()
    assert kcore_vertices(g, 2) == {1, 2, 3}
    assert kcore_vertices(g, 1) == {1, 2, 3, 4, 5}
    assert kcore_vertices(g, 3) == set()


def test_kcore_zero_is_everything():
    g = triangle_plus_tail()
    assert kcore_vertices(g, 0) == g.vertices


def test_kcore_subgraph_min_degree():
    g = random_labeled_graph(40, 0.2, seed=1)
    for k in (1, 2, 3, 4):
        sub = g.induced(kcore_vertices(g, k))
        for v in sub.adj:
            assert len(sub.adj[v]) >= k


def test_kcore_maximality():
    """No deleted vertex could rejoin: its degree into the core is < k."""
    g = random_labeled_graph(40, 0.2, seed=2)
    k = 3
    core = kcore_vertices(g, k)
    for v in g.vertices - core:
        assert len(g.adj[v] & core) < k


def test_kcore_nesting():
    g = random_labeled_graph(50, 0.25, seed=3)
    prev = g.vertices
    for k in range(1, 6):
        cur = kcore_vertices(g, k)
        assert cur <= prev
        prev = cur


@pytest.mark.parametrize("seed", range(6))
def test_coreness_matches_bruteforce(seed):
    g = random_labeled_graph(18, 0.25, seed=seed)
    assert coreness(g) == brute_coreness(g)


def test_coreness_defines_kcore_membership():
    g = random_labeled_graph(40, 0.2, seed=4)
    c = coreness(g)
    for k in range(0, max(c.values(), default=0) + 1):
        assert kcore_vertices(g, k) == {v for v in g.vertices if c[v] >= k}


def test_coreness_clique():
    n = 6
    g = LocalGraph.from_edges(
        [(i, j) for i in range(n) for j in range(i + 1, n)],
        {v: "A" for v in range(n)},
    )
    assert set(coreness(g).values()) == {n - 1}
    assert max(coreness(g).values()) == n - 1


def test_coreness_empty_graph():
    g = LocalGraph()
    assert coreness(g) == {}


def test_coreness_isolated_vertices():
    g = LocalGraph.from_edges([], {1: "A", 2: "A"}, vertices=[1, 2])
    assert coreness(g) == {1: 0, 2: 0}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [2, 3])
def test_peel_to_kcore_matches_recompute(seed, k):
    """Incremental maintenance == from-scratch recompute after deletions."""
    g = random_labeled_graph(35, 0.2, seed=seed)
    core = g.induced(kcore_vertices(g, k))
    victims = sorted(core.vertices)[:3]
    # incremental
    inc = core.copy()
    inc.remove_vertices(victims)
    peel_to_kcore(inc, k)
    # recompute
    ref = g.copy()
    ref.remove_vertices(victims)
    assert inc.vertices == kcore_vertices(ref, k)


def test_peel_to_kcore_returns_cascade():
    # path a-b-c-d plus triangle at a: removing d's neighbour c cascades
    g = LocalGraph.from_edges(
        [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)],
        {v: "A" for v in range(1, 6)},
    )
    h = g.copy()
    h.remove_vertex(5)
    gone = peel_to_kcore(h, 2)
    assert gone == {4}
    assert h.vertices == {1, 2, 3}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 16))
def test_coreness_hypothesis(seed, n):
    g = random_labeled_graph(n, 0.3, seed=seed)
    c = coreness(g)
    # every vertex really sits in a connected c(v)-core: degree within
    # the >=c(v) set is at least c(v)
    for v, k in c.items():
        members = {u for u in g.vertices if c[u] >= k}
        assert len(g.adj[v] & members) >= k
