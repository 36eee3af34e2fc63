"""Driver-local k-core extraction, maintenance, and coreness decomposition.

Used (a) inside the refinement loop (Algorithm 4 maintains the two
label-group cores after each bulk deletion) and (b) as the reference
implementation for the distributed k-core in ``repro.graphlib.kcore``.
"""
from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Collection, Dict, Mapping, Set

from .graph import LocalGraph


def kcore_vertices(g: LocalGraph, k: int) -> Set[int]:
    """Vertex set of the (maximal) k-core of ``g``: peel deg < k to fixpoint."""
    deg = {v: len(ns) for v, ns in g.adj.items()}
    alive = set(g.adj)
    q = deque(v for v, d in deg.items() if d < k)
    while q:
        v = q.popleft()
        if v not in alive:
            continue
        alive.discard(v)
        for u in g.adj[v]:
            if u in alive:
                deg[u] -= 1
                if deg[u] < k:
                    q.append(u)
    return alive


def peel_to_kcore(g: LocalGraph, k: int) -> Set[int]:
    """Core maintenance: restrict ``g`` (in place) to its k-core.

    Scans every vertex of ``g`` and peels any whose degree is below
    ``k``, cascading to its neighbours, until the whole graph is a
    fixpoint; returns the set of deleted vertices.
    """
    q = deque(v for v in g.adj if len(g.adj[v]) < k)
    gone: Set[int] = set()
    while q:
        v = q.popleft()
        if v not in g.adj or len(g.adj[v]) >= k:
            continue
        gone.add(v)
        ns = list(g.adj[v])
        g.remove_vertex(v)
        for u in ns:
            if u in g.adj and len(g.adj[u]) < k:
                q.append(u)
    return gone


def _bucket_coreness(nbrs: Mapping[int, Collection[int]]) -> Dict[int, int]:
    """Batagelj & Zaversnik (2003) O(n + m) core decomposition.

    Vertices sit in an array sorted by current degree, with ``start[d]``
    the first slot of degree ``d``. Processing the array in order peels
    a minimum-degree vertex each step; a neighbour's degree drops by
    swapping it to the front of its bucket and moving the bucket
    boundary. The final degree of every vertex is its coreness.
    """
    deg = {v: len(ns) for v, ns in nbrs.items()}
    start = [0] * (max(deg.values(), default=0) + 2)
    for d in deg.values():
        start[d + 1] += 1
    for d in range(1, len(start)):
        start[d] += start[d - 1]
    fill = start[:]
    vert = [0] * len(deg)
    pos: Dict[int, int] = {}
    for v, d in deg.items():
        pos[v] = fill[d]
        vert[fill[d]] = v
        fill[d] += 1
    for v in vert:
        dv = deg[v]
        for u in nbrs[v]:
            du = deg[u]
            if du > dv:
                pu, pw = pos[u], start[du]
                w = vert[pw]
                if w != u:
                    vert[pu], vert[pw] = w, u
                    pos[w], pos[u] = pu, pw
                start[du] += 1
                deg[u] = du - 1
    return deg


def coreness(g: LocalGraph) -> Dict[int, int]:
    """Full core decomposition (bucket peeling, O(n + m)).

    Returns ``delta[v]`` = the largest k such that v is in a k-core.
    """
    return _bucket_coreness(g.adj)


def label_coreness(g: LocalGraph) -> Mapping[int, int]:
    """Coreness of every vertex within its own label group.

    One decomposition over the homogeneous edges only: the label groups
    are disconnected from each other there, so this equals ``coreness``
    of each label group's induced subgraph, and the k-core of a group
    is ``{v : delta[v] >= k}``. Memoised on ``g`` until its next
    mutation; every caller shares the one read-only mapping.
    """
    if g.label_core_memo is None:
        lab = g.labels
        g.label_core_memo = MappingProxyType(
            _bucket_coreness(
                {v: [u for u in ns if lab[u] == lab[v]] for v, ns in g.adj.items()}
            )
        )
    return g.label_core_memo
