"""Driver-local k-truss decomposition — substrate for the CTC baseline.

The CTC competitor (Huang et al., PVLDB 2015) searches the closest
connected k-truss containing the query vertices. A k-truss is a maximal
subgraph where every edge is contained in at least (k-2) triangles
within the subgraph.
"""
from __future__ import annotations

import heapq
from typing import Dict, Set, Tuple

from .graph import Edge, LocalGraph, canon


def edge_support(g: LocalGraph) -> Dict[Edge, int]:
    """Triangle count per (canonical) edge."""
    sup: Dict[Edge, int] = {}
    for u, v in g.edges():
        sup[(u, v)] = len(g.adj[u] & g.adj[v])
    return sup


def trussness(g: LocalGraph) -> Dict[Edge, int]:
    """Edge truss numbers: largest k such that the edge is in a k-truss.

    Standard support-peeling: repeatedly remove the edge of minimum
    support; its truss number is ``min-support + 2`` (monotone in
    peeling order).
    """
    work = g.copy()
    sup = edge_support(work)
    heap = [(s, e) for e, s in sup.items()]
    heapq.heapify(heap)
    truss: Dict[Edge, int] = {}
    k = 2
    alive = set(sup)
    while heap:
        s, e = heapq.heappop(heap)
        if e not in alive or s != sup[e]:
            continue  # stale
        u, v = e
        k = max(k, s + 2)
        truss[e] = k
        alive.discard(e)
        for w in work.adj[u] & work.adj[v]:
            for f in (canon(u, w), canon(v, w)):
                if f in alive:
                    sup[f] -= 1
                    heapq.heappush(heap, (sup[f], f))
        work.remove_edge(u, v)
    return truss


def _truss_subgraph(g: LocalGraph, t: Dict[Edge, int], k: int) -> LocalGraph:
    """Subgraph of ``g`` on the edges with truss number ``t[e] >= k``."""
    keep_edges = [e for e, kv in t.items() if kv >= k]
    verts = {x for e in keep_edges for x in e}
    out = LocalGraph()
    for v in verts:
        out.add_vertex(v, g.labels[v])
    for u, v in keep_edges:
        out.add_edge(u, v)
    return out


def ktruss_subgraph(g: LocalGraph, k: int) -> LocalGraph:
    """Maximal k-truss of ``g`` as a subgraph (may drop isolated vertices)."""
    return _truss_subgraph(g, trussness(g), k)


def max_truss_containing(g: LocalGraph, queries: Set[int]) -> Tuple[int, LocalGraph]:
    """Largest k with a *connected* k-truss containing all of ``queries``.

    Returns ``(k, subgraph)`` where the subgraph is the connected
    component of the k-truss containing the queries; ``(1, empty)`` if
    the queries are not co-located in any 2-truss component (k-truss is
    only defined for k >= 2).
    """
    t = trussness(g)
    kmax = max(t.values(), default=2)
    for k in range(kmax, 1, -1):
        sub = _truss_subgraph(g, t, k)
        if all(q in sub for q in queries) and sub.connected(queries):
            q0 = next(iter(queries))
            return k, sub.induced(sub.component_of(q0))
    return 1, LocalGraph()
