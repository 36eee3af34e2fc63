"""Algorithms 6 and 7 — leader-pair identification and chi maintenance.

Asserts the paper's Example 5 (leader pair {v1, u2} on Figure 3) and
Example 6 (chi updates after deleting u6) literally, plus randomized
exactness of the Algorithm-7 decrement.
"""
import numpy as np
import pytest

from repro.core.leader import bounded_group_bfs, identify_leader, update_leader_on_delete
from repro.core.model import cross_bipartite
from repro.local.butterfly import Bipartite, butterfly_degrees
from repro.synth_graphs import FIG3_IDS, figure3_graph

from tests.helpers import butterfly_degree_of, random_bipartite

I = FIG3_IDS


def fig3_bipartite():
    g = figure3_graph()
    left = g.vertices_with_label("A")
    right = g.vertices_with_label("B")
    bp = cross_bipartite(g, left, right)
    return g, bp, butterfly_degrees(bp), left, right


def test_example5_left_leader_is_v1():
    g, bp, chi, left, right = fig3_bipartite()
    p = identify_leader(g, I["q_l"], chi, left, b=1, rho=3)
    assert p == I["v1"]


def test_example5_right_leader_is_u2():
    g, bp, chi, left, right = fig3_bipartite()
    p = identify_leader(g, I["q_r"], chi, right, b=1, rho=3)
    assert p == I["u2"]


def test_leader_biased_query_returns_itself():
    """A query vertex with chi >= b_max/2 is returned immediately."""
    g, bp, chi, left, right = fig3_bipartite()
    p = identify_leader(g, I["v1"], chi, left, b=1, rho=3)
    assert p == I["v1"]


def test_example6_same_label_update():
    """Deleting u6: chi(u2) drops 3 -> 2 (alpha = |{v1, v3}| = 2)."""
    g, bp, chi, left, right = fig3_bipartite()
    new = update_leader_on_delete(bp, I["u2"], chi[I["u2"]], I["u6"])
    assert new == 2


def test_example6_cross_label_update():
    """Deleting u6: chi(v1) drops 6 -> 3 (beta = |N(v3) ∩ N(v1)| - 1 = 3)."""
    g, bp, chi, left, right = fig3_bipartite()
    new = update_leader_on_delete(bp, I["v1"], chi[I["v1"]], I["u6"])
    assert new == 3


def test_deleting_leader_returns_none():
    g, bp, chi, left, right = fig3_bipartite()
    assert update_leader_on_delete(bp, I["v1"], chi[I["v1"]], I["v1"]) is None


def test_unrelated_deletion_keeps_chi():
    g, bp, chi, left, right = fig3_bipartite()
    # u9 participates in no butterflies and is not adjacent to v1 in B
    assert update_leader_on_delete(bp, I["v1"], chi[I["v1"]], I["u9"]) == chi[I["v1"]]


@pytest.mark.parametrize("seed", range(8))
def test_alg7_exact_on_random_bipartite(seed):
    """Sequential Alg-7 updates track the true chi through deletions."""
    rng = np.random.default_rng(seed)
    left, right, edges = random_bipartite(7, 7, 0.5, seed=seed)
    bp = Bipartite(left, right, edges)
    chi = butterfly_degrees(bp)
    p = max(left, key=lambda v: chi[v])  # track a left leader
    chi_p = chi[p]
    victims = [v for v in left + right if v != p]
    rng.shuffle(victims)
    for v in victims[:8]:
        chi_p = update_leader_on_delete(bp, p, chi_p, v)
        bp.remove_vertex(v)
        assert chi_p == butterfly_degree_of(bp, p), f"diverged at {v}"


def test_bounded_group_bfs_stays_in_label():
    g = figure3_graph()
    d = bounded_group_bfs(g, I["q_l"], rho=3)
    assert all(g.label(v) == "A" for v in d)
    assert d[I["q_l"]] == 0 and d[I["v1"]] == 1


def test_bounded_group_bfs_respects_rho():
    g = figure3_graph()
    d = bounded_group_bfs(g, I["q_r"], rho=1)
    assert set(d.values()) <= {0, 1}


def test_identify_leader_missing_query():
    g, bp, chi, left, right = fig3_bipartite()
    # unknown query falls back to returning itself (empty neighbourhood)
    assert identify_leader(g, 777, chi, left, b=1) == 777
