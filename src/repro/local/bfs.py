"""Driver-local BFS distances, query distances, and diameters.

These back the refinement loop of Algorithm 1 (query-distance based
peeling) and the exact-diameter checks used by tests of Theorem 3.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, Set

from .graph import LocalGraph

INF = math.inf


def bfs_distances(g: LocalGraph, source: int) -> Dict[int, float]:
    """Hop distances from ``source`` to every vertex (unreached -> inf)."""
    dist: Dict[int, float] = {v: INF for v in g.adj}
    if source not in g.adj:
        return dist
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in g.adj[u]:
            if dist[w] == INF:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def query_distances(g: LocalGraph, queries: Iterable[int]) -> Dict[int, float]:
    """Def. 5: ``dist(v, Q) = max_{q in Q} dist(v, q)`` for every vertex."""
    qd: Dict[int, float] = {v: 0.0 for v in g.adj}
    for q in queries:
        d = bfs_distances(g, q)
        for v in g.adj:
            if d[v] > qd[v]:
                qd[v] = d[v]
    return qd


def diameter(g: LocalGraph, vertices: Set[int] | None = None) -> float:
    """Exact diameter via all-pairs BFS (fine at candidate-graph scale)."""
    vs = vertices if vertices is not None else g.vertices
    best = 0.0
    for v in vs:
        d = bfs_distances(g, v)
        m = max((d[u] for u in vs), default=0.0)
        if m > best:
            best = m
    return best
