"""Algorithm 5 — fast (incremental) query-distance computation.

Each maintained single-source distance map ``dist`` comes with its
level buckets ``buckets`` (level -> vertices at that distance, with
``INF`` as its own level; see :func:`bucket_levels`). After a deletion
batch ``deleted`` leaves graph ``g``:

* ``d_min`` = the minimum old distance of a deleted vertex, found by
  popping the deleted vertices from their buckets; every surviving
  vertex with old distance <= d_min keeps its distance (no vertex on
  any of its shortest paths was deleted);
* every surviving vertex with old distance > d_min (the set ``S_u``,
  the union of the buckets above ``d_min``) is re-labeled by a
  level-synchronous BFS seeded from bucket ``d_min`` (distances only
  ever grow as the graph shrinks), and re-bucketed.

Neither step scans ``g``: an update costs O(|S_u| + edges out of the
frontier and S_u), not O(|g|). ``fast_update`` mutates ``dist`` and
``buckets`` in place and returns ``S_u``, the vertices whose distance
may have changed.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set

from ..local.bfs import INF
from ..local.graph import LocalGraph

Buckets = Dict[float, Set[int]]


def bucket_levels(dist: Mapping[int, float]) -> Buckets:
    """Level buckets of a distance map: level -> set of its vertices."""
    buckets: Buckets = {}
    for v, d in dist.items():
        buckets.setdefault(d, set()).add(v)
    return buckets


def rebucket(buckets: Buckets, v: int, old: float, new: Optional[float] = None) -> None:
    """Move ``v`` from level ``old`` to level ``new`` (``None``: drop it);
    an emptied bucket is deleted, so the top key is a non-empty level."""
    level = buckets[old]
    level.discard(v)
    if not level:
        del buckets[old]
    if new is not None:
        buckets.setdefault(new, set()).add(v)


def fast_update(
    g: LocalGraph, dist: Dict[int, float], buckets: Buckets, deleted: Iterable[int]
) -> List[int]:
    """Incrementally update single-source distances after deletions.

    ``dist`` and ``buckets`` still hold the old distances of the
    ``deleted`` vertices, which are popped from both to find ``d_min``;
    empty buckets are dropped. Unreachable survivors end at ``INF``.
    Returns the re-labeled vertices ``S_u``.
    """
    d_min = INF
    for v in deleted:
        d = dist.pop(v, None)
        if d is None:
            continue
        rebucket(buckets, v, d)
        if d < d_min:
            d_min = d
    if d_min == INF:
        return []  # only unreachable vertices were deleted
    touched: List[int] = []
    for d in [d for d in buckets if d > d_min]:
        touched.extend(buckets.pop(d))
    unseen = set(touched)
    frontier = list(buckets.get(d_min, ()))
    level = d_min
    while frontier and unseen:
        level += 1
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w in unseen:
                    unseen.discard(w)
                    dist[w] = level
                    nxt.append(w)
        if nxt:
            buckets[level] = set(nxt)
        frontier = nxt
    for v in unseen:
        dist[v] = INF
    if unseen:
        buckets[INF] = unseen
    return touched
