"""Experiment runners for the paper's evaluation section.

Each function reproduces one experiment's measurement loop and returns
plain row dicts, which the jobs/ entrypoints print as paper-vs-ours
tables (recorded in EXPERIMENTS.md) and ``tests/test_paper_claims.py``
checks against the paper's claims:

* :func:`run_quality_efficiency` — Exp-1 (Figure 4, mean F1) and Exp-2
  (Figure 5, mean query time) in one pass.
* :func:`run_breakdown` — Exp-5 / **Table 4**: Online-BCC vs LP-BCC
  per-phase costs (query-distance time, leader-pair-update time,
  number of Algorithm-3 butterfly-counting calls, total time).
* :func:`run_param_sweep` — Exp-4 (Figures 8-9): runtime vs k and b.
* :func:`run_mbcc` — Exp-9/10 (Figures 14/10): multi-labeled BCC
  quality and efficiency vs the number of query labels m.

All loops run on the driver-local engine for query volume; the
distributed G0/BCindex path is exercised by ``jobs/bcc_query.py`` and
the integration tests (DESIGN.md section 2).
"""
from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..baselines import ctc, psa
from ..core import (
    BCCResult,
    build_bcindex_local,
    default_ks,
    l2p_bcc,
    lp_bcc,
    online_bcc,
)
from ..local.graph import LocalGraph
from .datasets import load
from .metrics import f1_score, mean
from .queries import community_query_pairs

BCC_METHODS = ["Online-BCC", "LP-BCC", "L2P-BCC"]
ALL_METHODS = BCC_METHODS + ["CTC", "PSA"]


def _run_method(
    name: str,
    g: LocalGraph,
    queries: Sequence[int],
    b: int,
    ks: Optional[Sequence[int]] = None,
    index=None,
) -> Optional[BCCResult]:
    if name in BCC_METHODS and ks is None:
        ks = default_ks(g, queries)
    if name == "Online-BCC":
        return online_bcc(g, queries, ks, b)
    if name == "LP-BCC":
        return lp_bcc(g, queries, ks, b)
    if name == "L2P-BCC":
        return l2p_bcc(g, queries, ks, b, index=index)
    if name == "CTC":
        return ctc(g, queries)
    if name == "PSA":
        return psa(g, queries)
    raise KeyError(name)


def run_quality_efficiency(
    dataset: str,
    methods: Sequence[str] = tuple(ALL_METHODS),
    *,
    n_queries: int = 12,
    qd_rank: float = 0.8,
    inter_dist: int = 1,
    b: int = 1,
    m: int = 2,
    seed: int = 0,
) -> List[Dict]:
    """Exp-1/Exp-2: mean F1 and mean query time per method on one dataset."""
    pg = load(dataset)
    g = pg.to_local()
    qs = community_query_pairs(
        pg, g, n=n_queries, qd_rank=qd_rank, inter_dist=inter_dist, m=m, seed=seed
    )
    index = build_bcindex_local(g) if "L2P-BCC" in methods else None
    rows = []
    for name in methods:
        f1s, times, empties = [], [], 0
        for cid, Q in qs:
            t0 = time.perf_counter()
            res = _run_method(name, g, Q, b, index=index)
            times.append(time.perf_counter() - t0)
            if res is None:
                empties += 1
                f1s.append(0.0)
            else:
                f1s.append(f1_score(res.vertices, pg.communities[cid]))
        rows.append(
            {
                "dataset": dataset,
                "method": name,
                "n_queries": len(qs),
                "f1": mean(f1s),
                "time_s": mean(times),
                "empty": empties,
            }
        )
    return rows


def run_breakdown(
    dataset: str = "dblp_lite",
    *,
    n_queries: int = 12,
    b: int = 1,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Table 4: per-phase comparison of Online-BCC vs LP-BCC.

    Returns ``{"Online-BCC": {...}, "LP-BCC": {...}, "speedup": {...}}``
    with per-query means of qdist_time, leader_time (butterfly-degree
    maintenance), butterfly_counting calls, and total_time.
    """
    pg = load(dataset)
    g = pg.to_local()
    qs = community_query_pairs(pg, g, n=n_queries, seed=seed)
    out: Dict[str, Dict[str, float]] = {}
    for name, fn in [("Online-BCC", online_bcc), ("LP-BCC", lp_bcc)]:
        agg = {"qdist_time": [], "leader_time": [], "butterfly_counting": [], "total_time": []}
        for cid, Q in qs:
            ks = default_ks(g, Q)
            res = fn(g, Q, ks, b)
            if res is None:
                continue
            for key in agg:
                agg[key].append(res.stats.get(key, 0.0))
        out[name] = {k: mean(v) for k, v in agg.items()}
    sp = {}
    for k in ("qdist_time", "leader_time", "butterfly_counting", "total_time"):
        denom = out["LP-BCC"].get(k, 0.0)
        sp[k] = (out["Online-BCC"].get(k, 0.0) / denom) if denom > 0 else float("inf")
    out["speedup"] = sp
    return out


def run_param_sweep(
    dataset: str = "dblp_lite",
    *,
    k_values: Sequence[int] = (3, 4, 5, 6),
    b_values: Sequence[int] = (1, 2, 3, 4),
    n_queries: int = 8,
    seed: int = 0,
) -> List[Dict]:
    """Exp-4: mean runtime of the BCC methods varying k (=k1=k2) and b."""
    pg = load(dataset)
    g = pg.to_local()
    qs = community_query_pairs(pg, g, n=n_queries, seed=seed)
    index = build_bcindex_local(g)
    rows = []
    for param, values in (("k", k_values), ("b", b_values)):
        for val in values:
            for name in BCC_METHODS:
                times = []
                for cid, Q in qs:
                    if param == "k":
                        ks, b = [int(val)] * len(Q), 1
                    else:
                        ks, b = None, int(val)
                    t0 = time.perf_counter()
                    _run_method(name, g, Q, b, ks=ks, index=index)
                    times.append(time.perf_counter() - t0)
                rows.append(
                    {
                        "dataset": dataset,
                        "param": param,
                        "value": val,
                        "method": name,
                        "time_s": mean(times),
                    }
                )
    return rows


def run_mbcc(
    dataset_tmpl: str = "baidu1_m{m}_lite",
    *,
    ms: Sequence[int] = (2, 3, 4),
    methods: Sequence[str] = ("L2P-BCC", "CTC", "PSA"),
    n_queries: int = 8,
    b: int = 1,
    seed: int = 0,
) -> List[Dict]:
    """Exp-9/10: quality and efficiency of mBCC search vs #labels m."""
    rows = []
    for m in ms:
        rows.extend(
            run_quality_efficiency(
                dataset_tmpl.format(m=m),
                methods,
                n_queries=n_queries,
                m=m,
                b=b,
                seed=seed,
            )
        )
        for r in rows[-len(methods):]:
            r["m"] = m
    return rows
