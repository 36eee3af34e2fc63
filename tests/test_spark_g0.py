"""Algorithm 2 distributed vs local: both engines must extract the same
candidate G0."""
from itertools import combinations, product

import pytest

from repro.core.g0 import find_g0_local, find_g0_spark
from repro.core.model import InvalidQuery
from repro.graphlib.labeled import SparkLabeledGraph
from repro.local.graph import LocalGraph
from repro.local.kcore import label_coreness
from repro.synth_graphs import FIG3_IDS, figure2_graph

from tests.helpers import random_labeled_graph
from tests.test_query_contract import MALFORMED

I = FIG3_IDS


@pytest.fixture(scope="module")
def fig2_spark(spark):
    return SparkLabeledGraph.from_local(spark, figure2_graph()).cache()


def _assert_same_g0(g, sg, queries, ks, b):
    """find_g0_spark on ``sg`` equals find_g0_local on ``g``: the same
    vertices, labels and edges (or both None), and the same pair states
    (label pair, χ and ``satisfied``). Returns the local G0."""
    loc = find_g0_local(g, queries, ks, b)
    dist = find_g0_spark(sg, queries, ks, b)
    assert (loc is None) == (dist is None)
    if loc is None:
        return None
    assert dist.graph.vertices == loc.graph.vertices
    assert dist.graph.labels == loc.graph.labels
    assert sorted(dist.graph.edges()) == sorted(loc.graph.edges())
    assert (dist.queries, dist.labels, dist.ks, dist.b) == (loc.queries, loc.labels, loc.ks, loc.b)
    assert [(ps.ia, ps.ib, ps.chi, ps.satisfied) for ps in dist.pairs] == [
        (ps.ia, ps.ib, ps.chi, ps.satisfied) for ps in loc.pairs
    ]
    return loc.graph


def _assert_both_raise(g, sg, queries, ks, b):
    """find_g0_local and find_g0_spark both reject a malformed query."""
    with pytest.raises(InvalidQuery):
        find_g0_local(g, queries, ks, b)
    with pytest.raises(InvalidQuery):
        find_g0_spark(sg, queries, ks, b)


def test_fig2_g0_spark_equals_local(fig2_spark):
    assert _assert_same_g0(figure2_graph(), fig2_spark, [0, 10], [4, 3], 1) is not None


def test_fig2_g0_spark_none_cases(fig2_spark):
    g = figure2_graph()
    assert _assert_same_g0(g, fig2_spark, [0, 10], [5, 3], 1) is None
    assert _assert_same_g0(g, fig2_spark, [0, 10], [4, 3], 2) is None
    for queries, ks in MALFORMED.values():
        _assert_both_raise(g, fig2_spark, queries, ks, 1)


def test_fig3_g0_spark_equals_local(fig3_spark, fig3_local):
    Q = [I["q_l"], I["q_r"]]
    assert _assert_same_g0(fig3_local, fig3_spark, Q, [2, 2], 1) is not None


def test_planted_g0_spark_equals_local(planted_small_spark, planted_small, planted_small_local):
    ql = planted_small.leaders[0][0][0]
    qr = planted_small.leaders[0][1][0]
    _assert_same_g0(planted_small_local, planted_small_spark, [ql, qr], [2, 2], 1)


def test_spark_g0_feeds_search(fig2_spark):
    """End-to-end: online/lp search accepts a Spark graph for phase 1,
    and the engine adopts Spark G0's chi as the local path's does (same
    number of Algorithm-3 calls)."""
    from repro.core import lp_bcc, online_bcc

    g = figure2_graph()
    a = online_bcc(fig2_spark, [0, 10], [4, 3], 1)
    b = lp_bcc(fig2_spark, [0, 10], [4, 3], 1)
    assert a is not None and b is not None
    assert a.vertices == b.vertices == {0, 1, 2, 3, 4, 5, 10, 11, 12, 13}
    for res, search in ((a, online_bcc), (b, lp_bcc)):
        local = search(g, [0, 10], [4, 3], 1)
        assert res.stats["butterfly_counting"] == local.stats["butterfly_counting"]


# -- differential on seeded random labeled graphs -------------------------

#: (n, p, labels, seed) for random_labeled_graph
RANDOM_GRAPHS = {
    "rand_ab_1": (30, 0.3, ("A", "B"), 1),
    "rand_ab_2": (40, 0.18, ("A", "B"), 2),
    "rand_abc_3": (36, 0.3, ("A", "B", "C"), 3),
}


@pytest.fixture(scope="module")
def random_graphs(spark):
    """(name -> LocalGraph, SparkLabeledGraph of their disjoint union).

    Each graph gets its own id range, so the union keeps them apart and
    one per-label coreness fixpoint serves all three; a query's G0 never
    leaves its own graph."""
    graphs = {}
    for i, (name, (n, p, labels, seed)) in enumerate(RANDOM_GRAPHS.items()):
        g = random_labeled_graph(n, p, labels, seed=seed)
        off = 1000 * i
        graphs[name] = LocalGraph.from_edges(
            [(u + off, v + off) for u, v in g.edges()],
            {v + off: lab for v, lab in g.labels.items()},
            vertices=[v + off for v in g.vertices],
        )
    union = LocalGraph.from_edges(
        [e for g in graphs.values() for e in g.edges()],
        {v: lab for g in graphs.values() for v, lab in g.labels.items()},
        vertices=[v for g in graphs.values() for v in g.vertices],
    )
    return graphs, SparkLabeledGraph.from_local(spark, union).cache()


def _feasible_query(g, m):
    """The first m-label query, in order of the labels and then of
    decreasing per-label coreness (ties to the smallest id), whose local
    G0 with ks = the queries' coreness and b = 1 exists."""
    core = label_coreness(g)
    for labs in combinations(sorted(g.label_set()), m):
        ranked = [
            sorted(g.vertices_with_label(lab), key=lambda v: (-core[v], v))[:3]
            for lab in labs
        ]
        for Q in product(*ranked):
            ks = [core[q] for q in Q]
            if find_g0_local(g, Q, ks, 1) is not None:
                return list(Q), ks
    raise AssertionError("no feasible query")


@pytest.mark.parametrize("name", list(RANDOM_GRAPHS))
def test_g0_spark_equals_local_random(random_graphs, name):
    graphs, sg = random_graphs
    g = graphs[name]
    Q, ks = _feasible_query(g, 2)
    assert _assert_same_g0(g, sg, Q, ks, 1) is not None
    # None after the lookup: k above the query's coreness
    assert _assert_same_g0(g, sg, Q, [ks[0] + 1, ks[1]], 1) is None
    # malformed after the lookup: same-label queries, a vertex not in
    # the graph
    same = sorted(g.vertices_with_label(g.label(Q[0])))[:2]
    _assert_both_raise(g, sg, same, [0, 0], 1)
    _assert_both_raise(g, sg, [Q[0], 10**9], [ks[0], 0], 1)


def test_g0_spark_equals_local_m3(random_graphs):
    graphs, sg = random_graphs
    g = graphs["rand_abc_3"]
    Q, ks = _feasible_query(g, 3)
    assert _assert_same_g0(g, sg, Q, ks, 1) is not None


#: Spark jobs a warm find_g0_spark may run on Figure 3: one lookup
#: collect, a few BFS rounds and the collect of G0 (37 measured under
#: this suite's session settings)
MAX_WARM_G0_JOBS = 50


def test_warm_spark_g0_job_bound(spark, fig3_spark):
    Q = [I["q_l"], I["q_r"]]
    fig3_spark.label_coreness()  # the once-per-graph fixpoint
    sc = spark.sparkContext
    group = "test_warm_spark_g0_job_bound"
    sc.setJobGroup(group, "warm find_g0_spark on Figure 3")
    try:
        assert find_g0_spark(fig3_spark, Q, [2, 2], 1) is not None
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    jobs = sc.statusTracker().getJobIdsForGroup(group)
    assert 0 < len(jobs) <= MAX_WARM_G0_JOBS
