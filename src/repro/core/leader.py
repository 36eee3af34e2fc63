"""Algorithms 6 and 7 — leader-pair identification and maintenance.

* :func:`identify_leader` (Alg 6): find a vertex near the query with a
  butterfly degree large w.r.t. the side maximum, by binary-searching
  the threshold ``b_p`` in {b_max/2, b_max/4, ...} over the query's
  :data:`RHO`-hop homogeneous neighbourhood.
* :func:`update_leader_on_delete` (Alg 7): O(d²) exact decrement of a
  leader's butterfly degree when one vertex leaves the bipartite graph
  (call *before* the vertex is removed from the adjacency).
"""
from __future__ import annotations

from collections import deque
from typing import Dict, Mapping, Optional, Set

from ..local.butterfly import Bipartite
from ..local.graph import LocalGraph


#: hop radius of Algorithm 6's leader search around the query
RHO = 3


def _comb2(n: int) -> int:
    return n * (n - 1) // 2


def bounded_group_bfs(g: LocalGraph, q: int, rho: int) -> Dict[int, int]:
    """Hop distances from ``q`` within its own label group, up to rho."""
    if q not in g:
        return {}
    lab = g.label(q)
    dist = {q: 0}
    frontier = deque([q])
    while frontier:
        u = frontier.popleft()
        if dist[u] >= rho:
            continue
        for w in g.adj[u]:
            if w not in dist and g.labels[w] == lab:
                dist[w] = dist[u] + 1
                frontier.append(w)
    return dist


def identify_leader(
    g: LocalGraph,
    q: int,
    chi: Mapping[int, int],
    side_vertices: Set[int],
    b: int,
) -> int:
    """Algorithm 6: a leader vertex for the side of ``q``.

    Ties at a distance level are broken toward the largest butterfly
    degree, then the smallest id (matching the paper's Example 5, which
    returns u2 over the equal-degree u3).

    If neither the query nor any vertex within RHO hops clears the
    shrinking threshold, the best in-range vertex with chi >= b is
    returned (the paper's line 16 returns the query itself, which would
    force a full butterfly count on every subsequent iteration).
    """
    b_max = max((chi.get(v, 0) for v in side_vertices), default=0)
    p = q
    b_p = b_max / 2
    if chi.get(p, 0) >= b_p:
        return p
    dists = bounded_group_bfs(g, q, RHO)
    by_d: Dict[int, list] = {}
    for v, d in dists.items():
        by_d.setdefault(d, []).append(v)
    while b_p >= max(b, 1):
        for d in range(1, RHO + 1):
            cands = [s for s in by_d.get(d, ()) if chi.get(s, 0) >= b_p]
            if cands:
                return max(cands, key=lambda s: (chi.get(s, 0), -s))
        b_p /= 2
    if chi.get(p, 0) < b:
        best = max(
            (v for vs in by_d.values() for v in vs),
            key=lambda s: (chi.get(s, 0), -s),
            default=p,
        )
        if chi.get(best, 0) >= b:
            return best
    return p


def update_leader_on_delete(bp: Bipartite, p: int, chi_p: int, v: int) -> Optional[int]:
    """Algorithm 7: chi(p) after ``v`` is deleted from the bipartite graph.

    Must be called while ``v`` is still present in ``bp``. Returns the
    decremented degree, or ``None`` when the leader itself is deleted.
    """
    if p == v:
        return None
    v_left = v in bp.left
    p_left = p in bp.left
    if v_left == p_left:  # same label side
        alpha = len(bp.adj[v] & bp.adj[p])
        return chi_p - _comb2(alpha)
    if v in bp.adj[p]:
        beta = 0
        for u in bp.adj[v]:
            if u != p:
                beta += len(bp.adj[u] & bp.adj[p]) - 1
        return chi_p - beta
    return chi_p
