"""CTC — Closest Truss Community search (Huang et al., PVLDB 2015).

The paper's first competitor. CTC ignores vertex labels: it finds the
maximal-k connected k-truss containing the query vertices, then greedily
removes the vertices farthest from the queries (bulk deletion) while
maintaining the k-truss, returning the snapshot with the smallest query
distance — the same greedy framework as Algorithm 1, with the k-truss
playing the role of the butterfly-core.

We implement the model exactly: maximal k, then the shared greedy loop
:func:`~repro.core.engine.greedy_peel` with Online-mode query
distances and a deletion step that maintains the truss by
recomputation. CTC's truss index and batch heuristics are unnecessary
at candidate scale and do not affect the returned community, which is
what the F1 comparison measures.
"""
from __future__ import annotations

import time
from typing import Optional, Sequence

from ..local.bfs import query_distances
from ..local.graph import LocalGraph
from ..local.truss import max_truss_containing, trussness
from ..core.engine import farthest_layer, greedy_peel
from ..core.model import BCCResult


def _maintain_truss(g: LocalGraph, k: int) -> None:
    """Restrict ``g`` (in place) to its k-truss edges; drop isolated vertices."""
    t = trussness(g)
    for (u, v), kv in t.items():
        if kv < k:
            g.remove_edge(u, v)
    for v in list(g.adj):
        if not g.adj[v]:
            g.remove_vertex(v)


def ctc(g: LocalGraph, queries: Sequence[int], max_iterations: int = 10_000) -> Optional[BCCResult]:
    """Closest truss community for ``queries`` (labels ignored)."""
    t0 = time.perf_counter()
    queries = [int(q) for q in queries]
    k, cur = max_truss_containing(g, set(queries))
    if len(cur) == 0:
        return None

    def delete(S):
        cur.remove_vertices(S)
        _maintain_truss(cur, k)
        return True

    best, best_qd, iters = greedy_peel(
        cur, queries, lambda: farthest_layer(query_distances(cur, queries)), delete,
        max_iterations=max_iterations,
    )
    if best is None:
        return None
    res = BCCResult(g.induced(best), queries, best_qd)
    res.stats = {"k_truss": k, "iterations": iters, "total_time": time.perf_counter() - t0}
    return res
