"""Driver-local BFS distances, query distances, and diameters.

These back the refinement loop of Algorithm 1 (query-distance based
peeling) and the exact-diameter checks used by tests of Theorem 3.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, Sequence

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


def max_combine(g: LocalGraph, maps: Sequence[Dict[int, float]]) -> Dict[int, float]:
    """Def. 5's max over per-query distance maps of ``g``:
    ``dist(v, Q) = max_{q in Q} dist(v, q)`` for every vertex."""
    qd: Dict[int, float] = {v: 0.0 for v in g.adj}
    for d in maps:
        for v in g.adj:
            if d[v] > qd[v]:
                qd[v] = d[v]
    return qd


def query_distances(g: LocalGraph, queries: Iterable[int]) -> Dict[int, float]:
    """Def. 5: ``dist(v, Q)`` for every vertex, one BFS per query."""
    return max_combine(g, [bfs_distances(g, q) for q in queries])


def diameter(g: LocalGraph) -> float:
    """Exact diameter via all-pairs BFS (fine at candidate-graph scale)."""
    best = 0.0
    for v in g.adj:
        m = max(bfs_distances(g, v).values(), default=0.0)
        if m > best:
            best = m
    return best
