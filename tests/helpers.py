"""Shared test utilities: random labeled graphs and brute-force oracles.

The brute-force implementations here are deliberately naive (subset
enumeration, O(n^3) shortest paths, direct 2x2-biclique counting) and
independent of the code under test — they are the ground truth the
fast implementations are checked against on small inputs.
``heap_coreness``, ``kcore_vertices``, ``peeled_g0``, ``old_ctc`` and
``old_psa`` keep the implementations that a faster or shared path
replaced, as differential references for it; ``butterfly_degree_of``
and ``total_butterflies`` are single-vertex and whole-graph butterfly
counts, and ``homogeneous_induced`` and ``cross_edges`` local
label-group views, that only tests need.
"""
from __future__ import annotations

import heapq
from collections import defaultdict, deque
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.local.butterfly import Bipartite, butterfly_degrees
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


def butterfly_degree_of(b: Bipartite, v: int) -> int:
    """chi of a single vertex, by its own 2-hop path count."""
    if v not in b.adj:
        return 0
    paths: Dict[int, int] = defaultdict(int)
    for u in b.adj[v]:
        for w in b.adj[u]:
            if w != v:
                paths[w] += 1
    return sum(p * (p - 1) // 2 for p in paths.values())


def total_butterflies(b: Bipartite) -> int:
    """Number of distinct butterflies (each counted once).

    Each butterfly contains two left and two right vertices, so
    ``sum(chi(v) for v in left) == 2 * #butterflies``.
    """
    chi = butterfly_degrees(b)
    s = sum(chi[v] for v in b.left)
    assert s % 2 == 0
    return s // 2


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


def kcore_vertices(g: LocalGraph, k: int) -> Set[int]:
    """Vertex set of the (maximal) k-core of ``g``: peel deg < k to
    fixpoint (the construction PSA's coreness filter replaced)."""
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


def homogeneous_induced(g: LocalGraph, lab: object) -> LocalGraph:
    """Subgraph induced by the vertices of one label (homogeneous edges only)."""
    return g.induced(g.vertices_with_label(lab))


def cross_edges(g: LocalGraph, lab_a: object, lab_b: object) -> List[Tuple[int, int]]:
    """Heterogeneous edges between two label groups, canonicalised and sorted."""
    b = g.vertices_with_label(lab_b)
    return sorted(
        {canon(u, v) for u in g.vertices_with_label(lab_a) for v in g.adj[u] if v in b}
    )


def peeled_g0(
    g: LocalGraph, queries: Sequence[int], ks: Sequence[int], b: int
) -> Optional[LocalGraph]:
    """Algorithm 2 by peeling each query's label group to its k-core and
    keeping the query's component (the construction ``find_g0_local``
    replaced with a coreness filter), then the same feasibility check.
    Returns the candidate graph or ``None``."""
    from repro.core.g0 import feasible_candidate

    if any(q not in g for q in queries):
        return None
    labs = [g.label(q) for q in queries]
    if len(set(labs)) != len(labs):
        return None
    union: Set[int] = set()
    for q, lab, k in zip(queries, labs, ks):
        sub = homogeneous_induced(g, lab)
        core_vs = kcore_vertices(sub, k)
        if q not in core_vs:
            return None
        union |= sub.induced(core_vs).component_of(q)
    g0 = g.induced(union)
    return g0 if feasible_candidate(g0, queries, ks, b) is not None else None


def old_ctc(g: LocalGraph, queries, max_iterations: int = 10_000):
    """CTC with its own copy of the greedy loop (the implementation the
    shared ``greedy_peel`` replaced)."""
    from repro.baselines.ctc import _maintain_truss
    from repro.core.model import BCCResult
    from repro.local.bfs import INF, query_distances
    from repro.local.truss import max_truss_containing

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
    return BCCResult(g.induced(best), queries, best_qd, {"k_truss": k, "iterations": iters})


def old_psa(g: LocalGraph, queries, k: Optional[int] = None, max_iterations: int = 10_000):
    """PSA with its own copy of the greedy loop (the implementation the
    shared ``greedy_peel`` replaced)."""
    from repro.core.model import BCCResult
    from repro.local.bfs import INF, query_distances
    from repro.local.kcore import coreness, peel_to_kcore

    queries = [int(q) for q in queries]
    if any(q not in g for q in queries):
        return None
    if k is None:
        c = coreness(g)
        k = min(c[q] for q in queries)
    core_vs = kcore_vertices(g, k)
    if not all(q in core_vs for q in queries):
        return None
    cur = g.induced(core_vs)
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
            peel_to_kcore(cur, k)
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
        peel_to_kcore(cur, k)
    if best is None:
        return None
    return BCCResult(g.induced(best), queries, best_qd, {"k_core": k, "iterations": iters})


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
