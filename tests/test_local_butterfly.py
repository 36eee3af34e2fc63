"""Butterfly counting on bipartite graphs (Algorithm 3, local tier)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.local.butterfly import Bipartite, butterfly_degrees

from tests.helpers import (
    brute_butterfly_degrees,
    butterfly_degree_of,
    random_bipartite,
    total_butterflies,
)


def one_butterfly() -> Bipartite:
    return Bipartite([1, 2], [10, 11], [(1, 10), (1, 11), (2, 10), (2, 11)])


def test_single_butterfly():
    chi = butterfly_degrees(one_butterfly())
    assert chi == {1: 1, 2: 1, 10: 1, 11: 1}
    assert total_butterflies(one_butterfly()) == 1


def test_example1_paper():
    """Example 1: the subgraph B of Figure 2 gives chi(q_r) = 1."""
    b = Bipartite([0, 5], [10, 13], [(0, 10), (0, 13), (5, 10), (5, 13)])
    assert butterfly_degrees(b)[10] == 1


def test_no_butterfly_in_star():
    b = Bipartite([1], [10, 11, 12], [(1, 10), (1, 11), (1, 12)])
    assert set(butterfly_degrees(b).values()) == {0}
    assert total_butterflies(b) == 0


def test_complete_bipartite_counts():
    # K_{3,3}: each vertex is in C(2,1)*C(2,1)... = C(2,1) choices of
    # partner x C(3-1... check against brute force instead of algebra
    left, right, edges = [1, 2, 3], [10, 11, 12], None
    edges = [(u, v) for u in left for v in right]
    b = Bipartite(left, right, edges)
    ref = brute_butterfly_degrees(left, right, edges)
    assert butterfly_degrees(b) == ref
    # total = C(3,2)^2 = 9
    assert total_butterflies(b) == 9


@pytest.mark.parametrize("seed", range(8))
def test_matches_bruteforce_random(seed):
    left, right, edges = random_bipartite(6, 7, 0.4, seed=seed)
    b = Bipartite(left, right, edges)
    assert butterfly_degrees(b) == brute_butterfly_degrees(left, right, edges)


@pytest.mark.parametrize("seed", range(4))
def test_side_sums_equal_twice_total(seed):
    left, right, edges = random_bipartite(7, 6, 0.5, seed=seed)
    b = Bipartite(left, right, edges)
    chi = butterfly_degrees(b)
    sl = sum(chi[v] for v in b.left)
    sr = sum(chi[v] for v in b.right)
    assert sl == sr
    assert sl == 2 * total_butterflies(b)


def test_butterfly_degree_of_single_vertex():
    left, right, edges = random_bipartite(6, 6, 0.5, seed=3)
    b = Bipartite(left, right, edges)
    chi = butterfly_degrees(b)
    for v in list(b.adj)[:6]:
        assert butterfly_degree_of(b, v) == chi[v]
    assert butterfly_degree_of(b, 424242) == 0


def test_remove_vertex_updates_counts():
    b = one_butterfly()
    b.remove_vertex(2)
    assert set(butterfly_degrees(b).values()) == {0}


def test_sides_must_be_disjoint():
    with pytest.raises(AssertionError):
        Bipartite([1, 2], [2, 3], [])


def test_edge_must_cross_sides():
    with pytest.raises(AssertionError):
        Bipartite([1, 2], [10], [(1, 2)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_hypothesis_brute_equivalence(seed):
    left, right, edges = random_bipartite(5, 5, 0.5, seed=seed)
    b = Bipartite(left, right, edges)
    assert butterfly_degrees(b) == brute_butterfly_degrees(left, right, edges)
