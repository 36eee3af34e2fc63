"""L²P-BCC — index-based local exploration (Algorithm 8, Section 6.3).

Query processing:

1. find a path between the query vertices minimising the
   **butterfly-core path weight** (Def. 6):
   ``w(P) = |P| + γ1·(δmax − min_{v∈P} δ(v)) + γ2·(χmax − min_{v∈P} χ(v))``
   via a best-first search whose state carries (hops, path-min coreness,
   path-min chi). Keeping only the best-weight label per vertex makes
   this a heuristic for the (non-additive) objective — the paper gives
   no exact scheme either and Algorithm 8 carries no approximation
   guarantee;
2. expand the path in BFS order, admitting only vertices of the query
   labels whose indexed coreness is at least the path minimum for their
   label, until the candidate exceeds ``eta`` vertices;
3. run LP-BCC on the candidate graph G_t (Algorithm 2 on G_t, then the
   LP engine's bulk deletion + Algorithms 5-7).
"""
from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..local.graph import LocalGraph
from ..local.kcore import label_coreness
from .bcindex import BCIndex, build_bcindex_local
from .model import BCCResult
from .search import lp_bcc


def butterfly_core_path(
    idx: BCIndex,
    chi: Dict[int, int],
    chi_max: int,
    allowed: Set[int],
    s: int,
    t: int,
    gamma1: float = 0.5,
    gamma2: float = 0.5,
) -> Optional[List[int]]:
    """Best-first search for a small butterfly-core-weight s-t path.

    ``chi`` is the butterfly-degree map of the relevant label pair;
    ``allowed`` restricts the search to the query labels' vertices.
    """
    g = idx.graph
    if s not in allowed or t not in allowed:
        return None
    d_max = idx.delta_max

    def weight(hops: int, mc: int, mx: int) -> float:
        return hops + gamma1 * (d_max - mc) + gamma2 * (chi_max - mx)

    start = (idx.coreness.get(s, 0), chi.get(s, 0))
    best: Dict[int, float] = {}
    h0 = weight(0, *start)
    heap: List[Tuple[float, int, int, int, int, Tuple]] = [
        (h0, 0, start[0], start[1], s, (s,))
    ]
    while heap:
        w, hops, mc, mx, v, path = heapq.heappop(heap)
        if v == t:
            return list(path)
        if best.get(v, float("inf")) < w:
            continue
        for u in g.adj[v]:
            if u not in allowed or u in path:
                continue
            mc2 = min(mc, idx.coreness.get(u, 0))
            mx2 = min(mx, chi.get(u, 0))
            w2 = weight(hops + 1, mc2, mx2)
            if w2 < best.get(u, float("inf")):
                best[u] = w2
                heapq.heappush(heap, (w2, hops + 1, mc2, mx2, u, path + (u,)))
    return None


def expand_candidate(
    idx: BCIndex,
    path: List[int],
    labels: Sequence[object],
    eta: int,
) -> Set[int]:
    """Algorithm 8 line 3: BFS expansion of the path under per-label
    coreness thresholds ``k_l = min coreness of path vertices of that
    label``, until the candidate exceeds ``eta`` vertices."""
    g = idx.graph
    k_of: Dict[object, int] = {}
    for lab in labels:
        on_path = [v for v in path if g.labels[v] == lab]
        k_of[lab] = min((idx.coreness.get(v, 0) for v in on_path), default=0)
    selected: Set[int] = set(path)
    frontier = deque(path)
    lab_set = set(labels)
    while frontier and len(selected) <= eta:
        v = frontier.popleft()
        for u in g.adj[v]:
            if u in selected:
                continue
            lab = g.labels[u]
            if lab in lab_set and idx.coreness.get(u, 0) >= k_of[lab]:
                selected.add(u)
                frontier.append(u)
                if len(selected) > eta:
                    break
    return selected


def l2p_bcc(
    g: LocalGraph,
    queries: Sequence[int],
    ks: Optional[Sequence[int]],
    b: int,
    *,
    index: Optional[BCIndex] = None,
    eta: int = 400,
) -> Optional[BCCResult]:
    """L²P-BCC search. ``index`` amortises the BCindex across queries
    (pass the result of ``build_bcindex_local``/``build_bcindex_spark``);
    it is built on the fly when omitted.

    ``ks=None`` activates the paper's automatic setting: the largest
    core on each side of the candidate graph that still contains the
    query vertex (i.e. the query's coreness within G_t).

    ``total_time`` is the wall time of the whole call, index lookups,
    path search and expansion included.
    """
    t0 = time.perf_counter()
    if any(q not in g for q in queries):
        return None
    labels = [g.label(q) for q in queries]
    if len(set(labels)) != len(labels):
        return None
    idx = index if index is not None else build_bcindex_local(g)
    allowed = {v for v in g.adj if g.labels[v] in set(labels)}

    # per-vertex chi over the query-label pairs it participates in
    chi: Dict[int, int] = {}
    chi_max = 0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            cp = idx.chi_for_pair(labels[i], labels[j])
            for v, c in cp.items():
                if c > chi.get(v, 0):
                    chi[v] = c
            chi_max = max(chi_max, max(cp.values(), default=0))

    # union of butterfly-core paths from q0 to every other query
    path_union: List[int] = []
    for qt in queries[1:]:
        p = butterfly_core_path(idx, chi, chi_max, allowed, queries[0], qt)
        if p is None:
            return None
        path_union.extend(v for v in p if v not in path_union)

    cand = expand_candidate(idx, path_union, labels, eta)
    g_t = g.induced(cand)

    # effective core parameters on the candidate (Algorithm 8 line 4);
    # LP-BCC's G0 reads the same memoised coreness of G_t
    core_t = label_coreness(g_t)
    eff_ks = [core_t.get(q, 0) for q in queries]
    if ks is not None:
        eff_ks = [min(int(k), c) for k, c in zip(ks, eff_ks)]

    res = lp_bcc(g_t, queries, eff_ks, b)
    if res is not None:
        res.stats["candidate_size"] = len(cand)
        res.stats["eff_ks"] = list(eff_ks)
        res.stats["total_time"] = time.perf_counter() - t0
    return res
