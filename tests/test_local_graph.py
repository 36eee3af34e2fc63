"""Unit tests for the driver-local LabeledGraph substrate."""
import pandas as pd
import pytest

from repro.local.graph import LocalGraph, canon

from tests.helpers import cross_edges, homogeneous_induced, random_labeled_graph


def small() -> LocalGraph:
    return LocalGraph.from_edges(
        [(1, 2), (2, 3), (3, 1), (3, 4), (5, 6)],
        {1: "A", 2: "A", 3: "B", 4: "B", 5: "A", 6: "B", 7: "A"},
        vertices=[1, 2, 3, 4, 5, 6, 7],
    )


def test_canon_orders_endpoints():
    assert canon(5, 2) == (2, 5)
    assert canon(2, 5) == (2, 5)


def test_vertices_and_edges():
    g = small()
    assert g.vertices == {1, 2, 3, 4, 5, 6, 7}
    assert g.num_edges() == 5
    assert sorted(g.edges()) == [(1, 2), (1, 3), (2, 3), (3, 4), (5, 6)]


def test_self_loops_dropped():
    g = LocalGraph.from_edges([(1, 1), (1, 2)], {1: "A", 2: "A"})
    assert g.num_edges() == 1


def test_parallel_edges_collapse():
    g = LocalGraph.from_edges([(1, 2), (2, 1), (1, 2)], {1: "A", 2: "A"})
    assert g.num_edges() == 1


def test_degree_and_neighbors():
    g = small()
    assert g.degree(3) == 3
    assert g.adj[3] == {1, 2, 4}
    assert g.degree(7) == 0


def test_labels():
    g = small()
    assert g.label(1) == "A" and g.label(4) == "B"
    assert g.label_set() == {"A", "B"}
    assert g.vertices_with_label("A") == {1, 2, 5, 7}


def test_contains_and_len():
    g = small()
    assert 1 in g and 99 not in g
    assert len(g) == 7


def test_remove_vertex():
    g = small()
    g.remove_vertex(3)
    assert 3 not in g
    assert g.adj[1] == {2}
    assert g.num_edges() == 2


def test_remove_vertices_ignores_absent():
    g = small()
    g.remove_vertices([3, 99, 4])
    assert g.vertices == {1, 2, 5, 6, 7}


def test_copy_is_independent():
    g = small()
    h = g.copy()
    h.remove_vertex(1)
    assert 1 in g and 1 not in h
    assert g.adj[2] == {1, 3}


def test_induced_subgraph():
    g = small()
    h = g.induced({1, 2, 3})
    assert h.vertices == {1, 2, 3}
    assert sorted(h.edges()) == [(1, 2), (1, 3), (2, 3)]
    # original untouched
    assert g.num_edges() == 5


def test_induced_ignores_unknown_ids():
    g = small()
    h = g.induced({1, 2, 42})
    assert h.vertices == {1, 2}


def test_homogeneous_induced():
    g = small()
    h = homogeneous_induced(g, "A")
    assert h.vertices == {1, 2, 5, 7}
    assert sorted(h.edges()) == [(1, 2)]


def test_cross_edges():
    g = small()
    assert cross_edges(g, "A", "B") == [(1, 3), (2, 3), (5, 6)]
    assert cross_edges(g, "B", "A") == [(1, 3), (2, 3), (5, 6)]


def test_component_of():
    g = small()
    assert g.component_of(1) == {1, 2, 3, 4}
    assert g.component_of(5) == {5, 6}
    assert g.component_of(7) == {7}
    assert g.component_of(99) == set()


def test_connected():
    g = small()
    assert g.connected([1, 4])
    assert not g.connected([1, 5])
    assert g.connected([5])
    assert not g.connected([1, 99])
    assert g.connected([])


def test_pandas_roundtrip():
    g = small()
    vdf, edf = g.to_pandas()
    h = LocalGraph.from_pandas(vdf, edf)
    assert h.vertices == g.vertices
    assert sorted(h.edges()) == sorted(g.edges())
    assert h.labels == g.labels


def test_from_pandas_types():
    vdf = pd.DataFrame({"id": [1, 2], "label": ["X", "Y"]})
    edf = pd.DataFrame({"src": [1], "dst": [2]})
    g = LocalGraph.from_pandas(vdf, edf)
    assert g.label(1) == "X" and g.degree(2) == 1


def test_add_edge_creates_vertices():
    g = LocalGraph()
    g.add_edge(1, 2, "A", "B")
    assert g.vertices == {1, 2}
    g.add_edge(1, 1)  # self loop ignored
    assert g.num_edges() == 1


def test_add_edge_needs_label_of_new_endpoint():
    """An unseen endpoint without a label is rejected at ``add_edge``
    (it used to be stored with label ``None``, which the query rule
    reads as "not in the graph"); known endpoints need no label."""
    g = LocalGraph()
    with pytest.raises(ValueError, match="vertex 0"):
        g.add_edge(0, 1)
    assert len(g) == 0
    g.add_edge(10, 11, "B", "B")
    with pytest.raises(ValueError, match="vertex 0"):
        g.add_edge(0, 10)
    g.add_vertex(0, "A")
    g.add_edge(0, 10)
    assert g.adj[0] == {10} and g.label(0) == "A"


@pytest.mark.parametrize("seed", range(5))
def test_random_graph_invariants(seed):
    g = random_labeled_graph(30, 0.15, seed=seed)
    # symmetry of adjacency
    for u in g.adj:
        for v in g.adj[u]:
            assert u in g.adj[v]
    # edges() canonical
    for u, v in g.edges():
        assert u < v
    # component partition covers all vertices
    seen = set()
    for v in g.vertices:
        if v not in seen:
            seen |= g.component_of(v)
    assert seen == g.vertices
