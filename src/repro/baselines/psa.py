"""PSA — progressive minimum k-core search (Li et al., PVLDB 2019).

The paper's second competitor. PSA ignores vertex labels: for a degree
parameter k it searches a *small* connected k-core containing the query
vertices. We implement the model semantics as a progressive shrink: take
the connected k-core component containing the queries (the maximal
answer), then greedily peel the farthest vertices while maintaining the
k-core, keeping the smallest feasible snapshot (the shared loop
:func:`~repro.core.engine.greedy_peel` with Online-mode query
distances). PSA's lower/upper
bounding machinery accelerates this search but returns the same family
of answers; at candidate scale the direct shrink is exact enough for
the quality comparison.

``k`` defaults to the minimum coreness of the query vertices in the
whole (unlabeled) graph — the largest k for which an answer can exist.
"""
from __future__ import annotations

import time
from typing import Optional, Sequence

from ..local.bfs import query_distances
from ..local.graph import LocalGraph
from ..local.kcore import coreness, peel_to_kcore
from ..core.engine import farthest_layer, greedy_peel
from ..core.model import BCCResult, known_queries


def psa(g: LocalGraph, queries: Sequence[int], k: Optional[int] = None) -> Optional[BCCResult]:
    """Progressive minimum k-core community for ``queries`` (labels
    ignored); raises :class:`~repro.core.model.InvalidQuery` for a vertex
    not in ``g``."""
    t0 = time.perf_counter()
    queries = known_queries(g, queries)
    c = coreness(g)
    if k is None:
        k = min(c[q] for q in queries)
    core_vs = {v for v, cv in c.items() if cv >= k}
    if not all(q in core_vs for q in queries):
        return None
    cur = g.induced(core_vs)

    def delete(S):
        cur.remove_vertices(S)
        peel_to_kcore(cur, k)
        return True

    best, best_qd, iters = greedy_peel(
        cur, queries, lambda: farthest_layer(query_distances(cur, queries)), delete
    )
    if best is None:
        return None
    res = BCCResult(g.induced(best), queries, best_qd)
    res.stats = {"k_core": k, "iterations": iters, "total_time": time.perf_counter() - t0}
    return res
