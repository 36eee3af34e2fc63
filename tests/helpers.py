"""Shared test utilities: random labeled graphs and brute-force oracles.

The brute-force implementations here are deliberately naive (subset
enumeration, O(n^3) shortest paths, direct 2x2-biclique counting) and
independent of the code under test — they are the ground truth the
fast implementations are checked against on small inputs.
``heap_coreness`` and ``peeled_g0`` keep the implementations that a
faster path replaced, as differential references for it.
"""
from __future__ import annotations

import heapq
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.local.graph import LocalGraph, canon


def random_labeled_graph(
    n: int, p: float, labels=("A", "B"), seed: int = 0
) -> LocalGraph:
    """Erdos-Renyi G(n, p) with round-robin labels."""
    rng = np.random.default_rng(seed)
    lab = {v: labels[v % len(labels)] for v in range(n)}
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return LocalGraph.from_edges(edges, lab, vertices=range(n))


def random_bipartite(
    nl: int, nr: int, p: float, seed: int = 0
) -> Tuple[List[int], List[int], List[Tuple[int, int]]]:
    """Random bipartite edge set; right ids offset by 1000."""
    rng = np.random.default_rng(seed)
    left = list(range(nl))
    right = [1000 + i for i in range(nr)]
    edges = [(u, v) for u in left for v in right if rng.random() < p]
    return left, right, edges


# -- brute-force oracles ------------------------------------------------

def brute_butterfly_degrees(
    left: List[int], right: List[int], edges: List[Tuple[int, int]]
) -> Dict[int, int]:
    """chi by direct enumeration of all 2x2 bicliques."""
    adj: Dict[int, Set[int]] = {v: set() for v in left + right}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    chi = {v: 0 for v in left + right}
    for l1, l2 in combinations(left, 2):
        for r1, r2 in combinations(right, 2):
            if (
                r1 in adj[l1] and r2 in adj[l1]
                and r1 in adj[l2] and r2 in adj[l2]
            ):
                for x in (l1, l2, r1, r2):
                    chi[x] += 1
    return chi


def brute_all_pairs_dist(g: LocalGraph) -> Dict[Tuple[int, int], float]:
    """Floyd-Warshall hop distances."""
    vs = sorted(g.vertices)
    INF = float("inf")
    d = {(u, v): (0 if u == v else (1 if v in g.adj[u] else INF)) for u in vs for v in vs}
    for k in vs:
        for i in vs:
            dik = d[i, k]
            if dik == INF:
                continue
            for j in vs:
                alt = dik + d[k, j]
                if alt < d[i, j]:
                    d[i, j] = alt
    return d


def brute_coreness(g: LocalGraph) -> Dict[int, int]:
    """Coreness by definition: delta(v) = max k with v in the k-core,
    where the k-core is computed by naive repeated scanning."""
    out = {}
    for v in g.vertices:
        k = 0
        while True:
            sub = g.copy()
            changed = True
            while changed:
                changed = False
                for u in list(sub.adj):
                    if len(sub.adj[u]) < k + 1:
                        sub.remove_vertex(u)
                        changed = True
            if v in sub:
                k += 1
            else:
                break
        out[v] = k
    return out


def heap_coreness(g: LocalGraph) -> Dict[int, int]:
    """Core decomposition by min-degree peeling with a lazy heap (the
    implementation the bucket peeling replaced)."""
    deg = {v: len(ns) for v, ns in g.adj.items()}
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    removed: Set[int] = set()
    core: Dict[int, int] = {}
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != deg[v]:
            continue  # stale entry
        k = max(k, d)
        core[v] = k
        removed.add(v)
        for u in g.adj[v]:
            if u not in removed:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return core


def peeled_g0(
    g: LocalGraph, queries: Sequence[int], ks: Sequence[int], b: int
) -> Optional[LocalGraph]:
    """Algorithm 2 by peeling each query's label group to its k-core and
    keeping the query's component (the construction ``find_g0_local``
    replaced with a coreness filter), then the same feasibility check."""
    from repro.core.g0 import _connectivity_ok
    from repro.local.kcore import kcore_vertices

    if any(q not in g for q in queries):
        return None
    labs = [g.label(q) for q in queries]
    if len(set(labs)) != len(labs):
        return None
    union: Set[int] = set()
    for q, lab, k in zip(queries, labs, ks):
        sub = g.homogeneous_induced(lab)
        core_vs = kcore_vertices(sub, k)
        if q not in core_vs:
            return None
        union |= sub.induced(core_vs).component_of(q)
    g0 = g.induced(union)
    return g0 if _connectivity_ok(g0, labs, b) else None


def brute_edge_support(g: LocalGraph) -> Dict[Tuple[int, int], int]:
    return {
        (u, v): len(g.adj[u] & g.adj[v]) for u, v in g.edges()
    }


def brute_in_ktruss(g: LocalGraph, k: int) -> Set[Tuple[int, int]]:
    """Edges of the maximal k-truss by naive fixpoint."""
    sub = g.copy()
    while True:
        sup = brute_edge_support(sub)
        bad = [e for e, s in sup.items() if s < k - 2]
        if not bad:
            return set(sub.edges())
        for u, v in bad:
            sub.adj[u].discard(v)
            sub.adj[v].discard(u)


def brute_best_bcc_diameter(
    g: LocalGraph, queries, ks, b, max_size: int = 12
) -> float:
    """Exhaustive minimum BCC diameter over all vertex subsets (tiny graphs).

    Returns inf when no feasible BCC exists.
    """
    from repro.core.model import is_bcc
    from repro.local.bfs import diameter

    vs = sorted(g.vertices)
    assert len(vs) <= max_size, "brute force limited to tiny graphs"
    must = set(queries)
    rest = [v for v in vs if v not in must]
    best = float("inf")
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            sub = g.induced(must | set(extra))
            if is_bcc(sub, queries, ks, b):
                d = diameter(sub)
                if d < best:
                    best = d
    return best
