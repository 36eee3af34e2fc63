"""One memoised per-label coreness, and G0's butterfly count reused.

Differential checks against the implementations they replaced (oracles
in ``tests.helpers``): bucket ``coreness`` vs the lazy heap,
``label_coreness`` vs per-label decomposition, the coreness-filter
``find_g0_local`` vs per-label peeling, and the Algorithm-3 calls of a
search: one per label pair in G0's check, then only the engine's
recorded ones.
"""
from itertools import product

import pytest

from repro.core import InvalidQuery, default_ks, lp_bcc, online_bcc
from repro.core import engine as engine_mod
from repro.core import g0 as g0_mod
from repro.core.g0 import find_g0_local
from repro.local.kcore import coreness, label_coreness
from repro.synth_graphs import FIG3_IDS, figure2_graph, figure3_graph, planted_bcc_graph

from tests.helpers import heap_coreness, homogeneous_induced, peeled_g0, random_labeled_graph


@pytest.fixture(scope="module")
def graphs(planted_small_local):
    """The Figure-2/3 graphs, ``planted_small`` and 20 seeded random
    graphs (20-40 vertices, 2 or 3 labels)."""
    randoms = [
        random_labeled_graph(
            20 + seed % 5 * 5, 0.12 + seed % 4 * 0.06, ("A", "B", "C")[: 2 + seed % 2], seed
        )
        for seed in range(20)
    ]
    return [figure2_graph(), figure3_graph(), planted_small_local] + randoms


def per_label_heap_coreness(g):
    out = {}
    for lab in g.label_set():
        out.update(heap_coreness(homogeneous_induced(g, lab)))
    return out


def test_bucket_coreness_equals_heap(graphs):
    for g in graphs:
        assert coreness(g) == heap_coreness(g)


def test_label_coreness_equals_per_label_decomposition(graphs):
    for g in graphs:
        assert label_coreness(g) == per_label_heap_coreness(g)


def _query_tuples(g, per_graph=4):
    """A few query tuples, one vertex per label, spread over the graph."""
    labs = sorted(g.label_set())
    by_label = [sorted(g.vertices_with_label(lab)) for lab in labs]
    out = []
    for i in range(per_graph):
        out.append([vs[(i * 7 + j * 3) % len(vs)] for j, vs in enumerate(by_label)])
    return out


def _same_graph(cand, b):
    if cand is None or b is None:
        return cand is None and b is None
    a = cand.graph
    return a.vertices == b.vertices and sorted(a.edges()) == sorted(b.edges())


def test_find_g0_equals_peeled_construction(graphs):
    checked = found = 0
    for g in graphs:
        k_max = max(label_coreness(g).values(), default=0)
        for queries in _query_tuples(g):
            for k, b in product(range(k_max + 2), (1, 2)):
                ks = [k] * len(queries)
                got = find_g0_local(g, queries, ks, b)
                assert _same_graph(got, peeled_g0(g, queries, ks, b)), (queries, ks, b)
                checked += 1
                found += got is not None
    assert found > 50 and checked - found > 50


def test_find_g0_figure_fixtures_mixed_ks():
    g2 = figure2_graph()
    g3 = figure3_graph()
    q3 = [FIG3_IDS["q_l"], FIG3_IDS["q_r"]]
    for g, queries in ((g2, [0, 10]), (g3, q3)):
        for ks in product(range(6), repeat=2):
            assert _same_graph(
                find_g0_local(g, queries, ks, 1), peeled_g0(g, queries, ks, 1)
            )


def test_memo_kept_until_mutation():
    g = figure2_graph()
    core = label_coreness(g)
    assert label_coreness(g) is core
    assert g.copy().label_core_memo is None
    assert g.induced(g.vertices).label_core_memo is None
    u, v = g.edges()[0]
    mutations = [
        lambda: g.add_edge(0, 5),
        lambda: g.remove_edge(u, v),
        lambda: g.remove_vertex(13),
        lambda: g.add_vertex(999, "SE"),
    ]
    for mutate in mutations:
        label_coreness(g)
        mutate()
        assert g.label_core_memo is None
        assert label_coreness(g) == per_label_heap_coreness(g)


def test_remove_edge_missing_is_noop():
    g = figure2_graph()
    n_edges = g.num_edges()
    g.remove_edge(0, 999)
    g.remove_edge(0, 10_000)
    assert g.num_edges() == n_edges


def test_default_ks_is_memo_lookup():
    g = figure2_graph()
    assert default_ks(g, [0, 10]) == [label_coreness(g)[0], label_coreness(g)[10]]
    assert g.label_core_memo is not None


def test_default_ks_unknown_vertex_is_invalid_query():
    with pytest.raises(InvalidQuery, match="999"):
        default_ks(figure2_graph(), [0, 999])


def _engine_cases(planted):
    """(graph, queries, ks) with a feasible G0: m = 2 on the Figure-2
    graph and ``planted_small``, m = 3 on a three-label planted graph."""
    pg3 = planted_bcc_graph(n_communities=4, n_labels=3, n_background=20, seed=9)
    g2, g3 = planted.to_local(), pg3.to_local()
    cases = [(figure2_graph(), [0, 10])]
    cases += [(g2, [grp[0] for grp in lead]) for lead in planted.leaders.values()]
    cases += [(g3, [grp[0] for grp in lead]) for lead in pg3.leaders.values()]
    for g, queries in cases:
        ks = default_ks(g, queries)
        if find_g0_local(g, queries, ks, 1) is not None:
            yield g, queries, ks


@pytest.mark.parametrize("fast", [False, True])
def test_engine_reuses_g0_chi(planted_small, monkeypatch, fast):
    """A search counts butterflies once per label pair in G0's check and
    then only where the engine records a count: the engine starts from
    the check's pair states."""
    calls = {"g0": 0, "engine": 0}

    def counting(mod, key):
        count = mod.butterfly_degrees

        def wrapped(bp):
            calls[key] += 1
            return count(bp)

        monkeypatch.setattr(mod, "butterfly_degrees", wrapped)

    counting(g0_mod, "g0")
    counting(engine_mod, "engine")
    search = lp_bcc if fast else online_bcc
    ran = {2: 0, 3: 0}
    for g, queries, ks in _engine_cases(planted_small):
        pairs = len(find_g0_local(g, queries, ks, 1).pairs)
        assert pairs >= 1
        calls.update(g0=0, engine=0)
        res = search(g, queries, ks, 1)
        assert res is not None
        assert calls == {"g0": pairs, "engine": res.stats["butterfly_counting"]}
        ran[len(queries)] += 1
    assert ran[2] >= 3 and ran[3] >= 2
