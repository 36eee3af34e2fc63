"""CTC — Closest Truss Community search (Huang et al., PVLDB 2015).

The paper's first competitor. CTC ignores vertex labels: it finds the
maximal-k connected k-truss containing the query vertices, then greedily
removes the vertices farthest from the queries (bulk deletion) while
maintaining the k-truss, returning the snapshot with the smallest query
distance — the same greedy framework as Algorithm 1, with the k-truss
playing the role of the butterfly-core.

We implement the model exactly (maximal k + greedy peeling with truss
maintenance by recomputation); CTC's truss index and batch heuristics
are unnecessary at candidate scale and do not affect the returned
community, which is what the F1 comparison measures.
"""
from __future__ import annotations

import time
from typing import Optional, Sequence

from ..local.bfs import INF, query_distances
from ..local.graph import LocalGraph
from ..local.truss import max_truss_containing, trussness
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
    best = None
    best_qd = INF
    iters = 0
    while iters < max_iterations:
        iters += 1
        if not cur.connected(queries):
            break
        comp = cur.component_of(queries[0])
        if len(comp) < len(cur):
            cur.remove_vertices(cur.vertices - comp)
            _maintain_truss(cur, k)
            continue
        qd = query_distances(cur, queries)
        dmax = max(qd.values(), default=0.0)
        if dmax < best_qd:
            best_qd = dmax
            best = set(cur.vertices)
        S = {v for v, d in qd.items() if d >= dmax} - set(queries)
        if not S or dmax <= 0:
            break
        cur.remove_vertices(S)
        _maintain_truss(cur, k)
    if best is None:
        return None
    res = BCCResult(g.induced(best), queries, best_qd)
    res.stats = {"k_truss": k, "iterations": iters, "total_time": time.perf_counter() - t0}
    return res
