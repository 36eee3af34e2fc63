"""Generators and paper-figure fixtures.

The Figure-3 fixture is asserted against the paper literally: Table 2's
distance rows (before and after deleting u9) and Example 5's butterfly
degrees.
"""
import pytest

from repro.local.bfs import bfs_distances
from repro.local.butterfly import butterfly_degrees
from repro.local.graph import LocalGraph
from repro.local.kcore import coreness, kcore_vertices
from repro.core.model import cross_bipartite
from repro.synth_graphs import (
    FIG3_IDS,
    PlantedGraph,
    figure2_graph,
    figure3_graph,
    planted_bcc_graph,
)

from tests.helpers import homogeneous_induced

I = FIG3_IDS
NAME = {v: k for k, v in I.items()}


def _dist_levels(g: LocalGraph, src: int) -> dict:
    d = bfs_distances(g, src)
    out: dict = {}
    for v, dv in d.items():
        if v != src and dv != float("inf"):
            out.setdefault(int(dv), set()).add(NAME[v])
    return out


def test_figure3_table2_row_ql():
    lv = _dist_levels(figure3_graph(), I["q_l"])
    assert lv[1] == {"v1", "v2", "v3"}
    assert lv[2] == {"u2", "u3", "u5", "u6"}
    assert lv[3] == {"q_r", "u1", "u4", "u7"}
    assert lv[4] == {"u9"}


def test_figure3_table2_row_qr():
    lv = _dist_levels(figure3_graph(), I["q_r"])
    assert lv[1] == {"u1", "u2", "u3", "u9"}
    assert lv[2] == {"v1", "v3", "u4", "u5", "u7"}
    assert lv[3] == {"q_l", "v2", "u6"}
    assert 4 not in lv


def test_figure3_table2_after_deleting_u9():
    g = figure3_graph()
    g.remove_vertex(I["u9"])
    lv_l = _dist_levels(g, I["q_l"])
    assert lv_l[1] == {"v1", "v2", "v3"}
    assert lv_l[2] == {"u2", "u3", "u5", "u6"}
    assert lv_l[3] == {"q_r", "u1", "u4", "u7"}
    assert 4 not in lv_l
    lv_r = _dist_levels(g, I["q_r"])
    assert lv_r[1] == {"u1", "u2", "u3"}
    assert lv_r[2] == {"v1", "v3", "u5"}
    assert lv_r[3] == {"q_l", "v2", "u6", "u4", "u7"}


def test_figure3_example5_butterfly_degrees():
    g = figure3_graph()
    bp = cross_bipartite(
        g, g.vertices_with_label("A"), g.vertices_with_label("B")
    )
    chi = butterfly_degrees(bp)
    nonzero = {NAME[v]: c for v, c in chi.items() if c}
    assert nonzero == {"v1": 6, "v3": 6, "u2": 3, "u3": 3, "u5": 3, "u6": 3}


def test_figure2_bcc_structure():
    g = figure2_graph()
    # L = {0..5} is a 4-core of the SE group
    se = homogeneous_induced(g, "SE")
    assert {0, 1, 2, 3, 4, 5} <= kcore_vertices(se, 4)
    # R = {10..13} is a 3-core of the UI group
    ui = homogeneous_induced(g, "UI")
    assert {10, 11, 12, 13} <= kcore_vertices(ui, 3)
    # B contains the butterfly on {q_l, v5} x {q_r, u3}
    bp = cross_bipartite(
        g, g.vertices_with_label("SE"), g.vertices_with_label("UI")
    )
    chi = butterfly_degrees(bp)
    assert chi[0] >= 1 and chi[10] >= 1 and chi[5] >= 1 and chi[13] >= 1


def test_figure2_three_labels():
    g = figure2_graph()
    assert g.label_set() == {"SE", "UI", "PM"}


def test_planted_deterministic():
    a = planted_bcc_graph(n_communities=4, seed=3)
    b = planted_bcc_graph(n_communities=4, seed=3)
    assert a.vertices.equals(b.vertices)
    assert a.edges.equals(b.edges)
    assert a.communities == b.communities


def test_planted_different_seeds_differ():
    a = planted_bcc_graph(n_communities=4, seed=3)
    b = planted_bcc_graph(n_communities=4, seed=4)
    assert not a.edges.equals(b.edges)


def test_planted_shapes():
    pg = planted_bcc_graph(n_communities=5, group_size=(6, 8), n_background=30, seed=0)
    g = pg.to_local()
    assert len(pg.communities) == 5
    for cid, vs in pg.communities.items():
        assert 12 <= len(vs) <= 16
        # the two groups carry different labels
        labs = {g.label(v) for v in vs}
        assert len(labs) == 2
    # background vertices exist beyond communities
    in_comm = set().union(*pg.communities.values())
    assert len(g.vertices - in_comm) == 30


def test_planted_leaders_have_butterflies():
    pg = planted_bcc_graph(n_communities=4, n_leaders=2, seed=1)
    g = pg.to_local()
    for cid, groups in pg.leaders.items():
        labs = [g.label(grp[0]) for grp in groups]
        bp = cross_bipartite(
            g, g.vertices_with_label(labs[0]), g.vertices_with_label(labs[1])
        )
        chi = butterfly_degrees(bp)
        for grp in groups:
            assert max(chi[v] for v in grp) >= 1


def test_planted_leaders_are_group_hubs():
    pg = planted_bcc_graph(n_communities=3, n_leaders=2, seed=2)
    g = pg.to_local()
    for cid, groups in pg.leaders.items():
        comm = pg.communities[cid]
        for grp in groups:
            lead = grp[0]
            lab = g.label(lead)
            group_members = {v for v in comm if g.label(v) == lab}
            # hub: adjacent to every other member of its own group
            assert group_members - {lead} <= g.adj[lead]


def test_planted_chain_edges_connect_communities():
    pg = planted_bcc_graph(
        n_communities=6, homo_noise_frac=0.05, n_background=0, seed=5
    )
    g = pg.to_local()
    comm_of = {v: c for c, vs in pg.communities.items() for v in vs}
    cross_comm = [
        (u, v)
        for u, v in g.edges()
        if comm_of.get(u) is not None
        and comm_of.get(v) is not None
        and comm_of[u] != comm_of[v]
        and g.label(u) == g.label(v)
    ]
    assert cross_comm, "chaining edges should exist between communities"


def test_planted_multilabel():
    pg = planted_bcc_graph(n_communities=4, n_labels=3, seed=6)
    g = pg.to_local()
    for cid, vs in pg.communities.items():
        assert len({g.label(v) for v in vs}) == 3
        assert len(pg.leaders[cid]) == 3


def test_planted_label_pool():
    pg = planted_bcc_graph(n_communities=8, n_labels=2, label_pool=10, seed=7)
    g = pg.to_local()
    assert len(g.label_set()) > 2


def test_to_spark_roundtrip(spark):
    pg = planted_bcc_graph(n_communities=2, n_background=5, seed=9)
    vdf, edf = pg.to_spark(spark)
    assert vdf.count() == len(pg.vertices)
    assert edf.count() == len(pg.edges)
