"""The paper's evaluation claims (Section 7), one named test per shape.

EXPERIMENTS.md's "Summary of reproduced claims" lists five shapes; each
is checked here, or by the named tests elsewhere, on the ``*_lite``
stand-ins with seed 0 and a few queries. The checks assert on F1 and on
counts, never on wall-clock time, so they hold on a loaded host.

* Claim 1 (Fig. 4), BCC beats the label-blind baselines:
  :func:`test_claim1_bcc_beats_label_blind_baselines`.
* Claim 2 (Table 4), LP-BCC is exact and does less work: exactness by
  ``test_lp_bcc::test_equivalence_on_planted`` and
  ``::test_equivalence_on_datasets``, less work per query by
  ``test_lp_bcc::test_lp_fewer_butterfly_counts``, and over the Table-4
  workload by :func:`test_claim2_lp_fewer_butterfly_counts`.
* Claim 3 (Fig. 5), L²P-BCC is robust where G0 blows up:
  :func:`test_claim3_l2p_candidate_stays_local_on_orkut`.
* Claim 4 (Theorem 3), the greedy is a 2-approximation:
  ``test_approximation``.
* Claim 5 (Figs. 14/10), mBCC degrades gracefully in m:
  :func:`test_claim5_mbcc_beats_baselines_and_degrades_in_m`.

:func:`test_exp4_g0_shrinks_with_k` checks the mechanism behind
Figs. 8-9 (larger k, smaller G0) as a count.
"""
import pytest

from repro.core import build_bcindex_local, default_ks, find_g0_local, l2p_bcc, lp_bcc
from repro.eval.datasets import DATASET_PARAMS, load
from repro.eval.experiments import run_breakdown, run_mbcc, run_quality_efficiency
from repro.eval.queries import community_query_pairs

#: ``l2p_bcc``'s default candidate cap η (Algorithm 8).
ETA = 400


@pytest.mark.parametrize("dataset", list(DATASET_PARAMS))
def test_claim1_bcc_beats_label_blind_baselines(dataset):
    f1 = {r["method"]: r["f1"] for r in run_quality_efficiency(dataset, n_queries=4, seed=0)}
    best_bcc = max(f1["Online-BCC"], f1["LP-BCC"], f1["L2P-BCC"])
    assert best_bcc >= max(f1["CTC"], f1["PSA"]) - 0.05, f1


def test_claim2_lp_fewer_butterfly_counts():
    bd = run_breakdown("dblp_bd_lite", n_queries=4, seed=0)
    assert bd["speedup"]["butterfly_counting"] > 1, bd


def test_claim3_l2p_candidate_stays_local_on_orkut():
    pg = load("orkut_lite")
    g = pg.to_local()
    idx = build_bcindex_local(g)
    for _, Q in community_query_pairs(pg, g, n=6, seed=0):
        ks = default_ks(g, Q)
        lp = lp_bcc(g, Q, ks, 1)
        l2p = l2p_bcc(g, Q, ks, 1, index=idx)
        assert lp is not None and l2p is not None, Q
        assert l2p.stats["candidate_size"] <= ETA + 1
        assert l2p.stats["candidate_size"] < lp.stats["g0_size"], (Q, l2p.stats, lp.stats)


def test_exp4_g0_shrinks_with_k():
    pg = load("dblp_lite")
    g = pg.to_local()
    for _, Q in community_query_pairs(pg, g, n=8, seed=0):
        sizes = [len(find_g0_local(g, Q, [k, k], 1).graph) for k in (3, 4, 5, 6)]
        assert sizes == sorted(sizes, reverse=True) and sizes[-1] < sizes[0], (Q, sizes)


def test_claim5_mbcc_beats_baselines_and_degrades_in_m():
    rows = run_mbcc(
        "baidu1_m{m}_lite", ms=(2, 3, 4), methods=("L2P-BCC", "CTC", "PSA"),
        n_queries=4, seed=0,
    )
    f1 = {(r["m"], r["method"]): r["f1"] for r in rows}
    for m in (2, 3, 4):
        assert f1[m, "L2P-BCC"] > max(f1[m, "CTC"], f1[m, "PSA"]), (m, f1)
    l2p = [f1[m, "L2P-BCC"] for m in (2, 3, 4)]
    assert l2p == sorted(l2p, reverse=True), l2p
