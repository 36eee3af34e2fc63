"""Algorithm 5 — fast (incremental) query-distance computation.

After a deletion batch ``deleted`` leaves graph ``g``:

* ``d_min`` = the minimum old distance of a deleted vertex; every
  surviving vertex with old distance <= d_min keeps its distance (no
  vertex on any of its shortest paths was deleted);
* every surviving vertex with old distance > d_min (the set ``S_u``)
  is re-labeled by a BFS seeded from the distance-``d_min`` frontier
  ``S_s`` (distances only ever grow as the graph shrinks).

The function mutates ``dist`` in place and returns the number of
re-labeled vertices (for instrumentation).
"""
from __future__ import annotations

from collections import deque
from typing import Dict, Iterable

from ..local.bfs import INF
from ..local.graph import LocalGraph


def fast_update(g: LocalGraph, dist: Dict[int, float], deleted: Iterable[int]) -> int:
    """Incrementally update single-source distances after deletions.

    ``dist`` is the map being maintained; it still holds the old
    distances of the ``deleted`` vertices, which are popped from it to
    find ``d_min``. Unreachable survivors end at ``INF``.
    """
    d_min = min((dist.pop(v, INF) for v in deleted), default=INF)
    if d_min == INF:
        return 0  # only unreachable vertices were deleted
    s_u = {v for v in g.adj if dist.get(v, INF) > d_min}
    if not s_u:
        return 0
    for v in s_u:
        dist[v] = INF
    frontier = deque(v for v in g.adj if dist.get(v, INF) == d_min)
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        for w in g.adj[u]:
            if w in s_u and dist[w] == INF:
                dist[w] = du + 1
                frontier.append(w)
    return len(s_u)
