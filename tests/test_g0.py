"""Algorithm 2 — finding the maximal candidate G0 (local engine)."""
import pytest

from repro.core.g0 import find_g0_local
from repro.core.model import is_bcc
from repro.local.butterfly import butterfly_degrees
from repro.local.kcore import kcore_vertices
from repro.synth_graphs import FIG3_IDS, figure2_graph, figure3_graph, planted_bcc_graph

from tests.helpers import homogeneous_induced

I = FIG3_IDS


def test_figure2_g0_exact():
    g = figure2_graph()
    g0 = find_g0_local(g, [0, 10], [4, 3], 1).graph
    assert g0.vertices == {0, 1, 2, 3, 4, 5, 10, 11, 12, 13}
    assert is_bcc(g0, [0, 10], [4, 3], 1)


def test_g0_none_when_core_excludes_query():
    g = figure2_graph()
    assert find_g0_local(g, [0, 10], [5, 3], 1) is None


def test_g0_none_when_b_too_large():
    g = figure2_graph()
    assert find_g0_local(g, [0, 10], [4, 3], 2) is None


def test_g0_none_same_labels():
    g = figure2_graph()
    assert find_g0_local(g, [0, 5], [4, 4], 1) is None


def test_g0_none_missing_query():
    g = figure2_graph()
    assert find_g0_local(g, [0, 999], [4, 3], 1) is None


def test_figure3_g0():
    g = figure3_graph()
    g0 = find_g0_local(g, [I["q_l"], I["q_r"]], [2, 2], 1).graph
    assert is_bcc(g0, [I["q_l"], I["q_r"]], [2, 2], 1)


def test_g0_groups_are_core_components():
    g = figure2_graph()
    g0 = find_g0_local(g, [0, 10], [4, 3], 1).graph
    se = homogeneous_induced(g, "SE")
    comp = se.induced(kcore_vertices(se, 4)).component_of(0)
    assert g0.vertices_with_label("SE") == comp


def test_g0_contains_cross_edges():
    g = figure2_graph()
    g0 = find_g0_local(g, [0, 10], [4, 3], 1).graph
    assert (0, 10) in [tuple(sorted(e)) for e in g0.edges()]


@pytest.mark.parametrize("seed", range(4))
def test_g0_on_planted(seed):
    pg = planted_bcc_graph(n_communities=4, n_background=20, seed=seed)
    g = pg.to_local()
    cid = 0
    ql = pg.leaders[cid][0][0]
    qr = pg.leaders[cid][1][0]
    g0 = find_g0_local(g, [ql, qr], [2, 2], 1).graph
    # G0 contains the whole planted community core
    assert {ql, qr} <= g0.vertices
    assert is_bcc(g0, [ql, qr], [2, 2], 1) or not g0.connected([ql, qr])


def test_g0_multilabel():
    pg = planted_bcc_graph(n_communities=3, n_labels=3, n_background=10, seed=2)
    g = pg.to_local()
    cid = 0
    qs = [grp[0] for grp in pg.leaders[cid]]
    cand = find_g0_local(g, qs, [2, 2, 2], 1)
    assert set(qs) <= cand.graph.vertices
    # one pair state per label pair with cross edges, connecting all three groups
    assert 2 <= len(cand.pairs) <= 3
    assert all(ps.chi == butterfly_degrees(ps.bp) for ps in cand.pairs)
