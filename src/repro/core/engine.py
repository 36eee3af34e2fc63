"""The greedy BCC refinement engine (Algorithms 1, 4, 5, 6, 7, 9).

One engine drives all BCC variants:

* **Online mode** (``fast=False``): Algorithm 1 verbatim — full BFS
  query distances every iteration, full butterfly count (Algorithm 3)
  every iteration.
* **LP mode** (``fast=True``): the Section-6 accelerations — incremental
  query-distance updates (Algorithm 5), leader-pair identification
  (Algorithm 6), and O(d²) leader butterfly-degree updates (Algorithm
  7); full counts happen only when a leader is deleted or drops
  below ``b``. Each query's distances and their max-combine ``qd`` are
  kept in distance-level buckets: after a deletion batch only the
  vertices beyond ``d_min`` are re-labeled and re-combined, and the
  farthest layer is the top bucket of ``qd``, so an iteration costs
  what changed, not |G|.

Both modes use bulk deletion (all vertices at the maximum query
distance are removed per iteration), as all methods do in the paper's
experiments. The engine consumes a :class:`~repro.core.model.Candidate`
from Algorithm 2 (``find_g0_local`` / ``find_g0_spark``) and adopts its
:class:`~repro.core.model.PairState` per label pair: the cross bipartite
graph and χ that G0's feasibility check counted are the engine's first
butterfly count. For m > 2 query labels there is one pair per label
pair with cross edges, and the engine checks Def.-7 cross-group
connectivity instead of the single leader-pair condition (Algorithm 9).
The loop itself is :func:`greedy_peel`, which the CTC and PSA baselines
share with their own deletion step and :func:`farthest_layer` over
Online-mode query distances. Vertices cut off from a query sit at
distance ``INF``, so the loop peels them as the farthest layer and needs
no component search.

Instrumentation (``BCCResult.stats``) backs Table 4: ``qdist_time``,
``leader_time`` (Alg 6+7 / full-count time), ``butterfly_counting``
(number of Algorithm-3 invocations after G0's check), ``iterations`` and
``g0_size``; the entry points in ``search`` add ``g0_time`` and
``total_time``.
"""
from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..local.bfs import INF, bfs_distances
from ..local.butterfly import butterfly_degrees
from ..local.graph import LocalGraph
from .fastdist import Buckets, bucket_levels, fast_update, rebucket
from .leader import identify_leader, update_leader_on_delete
from .model import BCCResult, Candidate, PairState, groups_connected, leaders_clear


def farthest_layer(qd: Mapping[int, float]) -> Tuple[float, Set[int]]:
    """The largest query distance in ``qd`` and the vertices at it."""
    dmax = max(qd.values(), default=0.0)
    return dmax, {v for v, d in qd.items() if d >= dmax}


def greedy_peel(
    g: LocalGraph,
    queries: Sequence[int],
    farthest: Callable[[], Tuple[float, Set[int]]],
    delete: Callable[[Set[int]], bool],
    *,
    max_iterations: int,
) -> Tuple[Optional[Set[int]], float, int]:
    """Algorithm 1's greedy loop, shared by BCC, CTC and PSA.

    ``farthest()`` returns the largest query distance of ``g`` (Def. 5)
    and the layer of vertices at it. ``g`` starts feasible. Each iteration
    records ``g`` as the best snapshot if that distance is the smallest
    so far, then bulk-deletes the layer. Vertices cut off from a query are
    at distance ``INF``, so they form the farthest layer and are peeled
    (never recorded) before any finite layer; the loop stops when a query
    is missing or itself in the ``INF`` layer (cut off from the others).
    ``delete(S)`` removes ``S`` from ``g``, restores the model's
    invariant (butterfly-core, k-truss or k-core) and returns whether
    ``g`` is still feasible; the loop stops when it is not.

    Returns ``(best_vertices or None, best_qd, iterations)``.
    """
    best: Optional[Set[int]] = None
    best_qd = INF
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        if any(q not in g for q in queries):
            break
        dmax, layer = farthest()
        if dmax == INF and any(q in layer for q in queries):
            break
        if dmax < best_qd:
            best_qd = dmax
            best = g.vertices
        S = layer.difference(queries)
        if not S or dmax <= 0:
            break
        if not delete(S):
            break
    return best, best_qd, iterations


class RefinementEngine:
    """Greedy diameter-shrinking refinement of a candidate BCC.

    Adopts ``candidate.pairs`` (and, in LP mode, identifies each satisfied
    pair's leaders); their bipartite graphs are then mutated by the
    deletions, so a candidate feeds one engine. The deletions run on a
    copy of ``candidate.graph``; the answer is induced from the graph
    itself, so it must not be modified until :meth:`run` returns.
    """

    def __init__(
        self,
        candidate: Candidate,
        *,
        fast: bool = False,
        max_iterations: int = 100_000,
    ):
        g0 = candidate.graph
        self.g0 = g0
        self.g = g0.copy()
        self.queries = candidate.queries
        self.labels = candidate.labels
        self.k_of = dict(zip(self.labels, candidate.ks))
        self.b = candidate.b
        self.fast = fast
        self.max_iterations = max_iterations
        self.stats: Dict[str, float] = {
            "qdist_time": 0.0,
            "leader_time": 0.0,
            "butterfly_counting": 0,
            "iterations": 0,
            "g0_size": len(g0),
        }
        # homogeneous degree per vertex (same-label neighbours) for core
        # peeling; every label group of g0 counts, query label or not
        by_label: Dict[object, Set[int]] = {}
        for v, lab in self.g.labels.items():
            by_label.setdefault(lab, set()).add(v)
        self.hdeg: Dict[int, int] = {
            v: len(ns & by_label[self.g.labels[v]]) for v, ns in self.g.adj.items()
        }
        self.pairs: List[PairState] = candidate.pairs
        self.pairs_by_label: Dict[object, List[PairState]] = {l: [] for l in self.labels}
        for ps in self.pairs:
            self.pairs_by_label[self.labels[ps.ia]].append(ps)
            self.pairs_by_label[self.labels[ps.ib]].append(ps)
            if fast and ps.satisfied:
                self._identify_leaders(ps)
        # LP mode: one Algorithm-5 distance map per query with its level
        # buckets, and their max-combine qd with its own buckets (the top
        # bucket is the farthest layer); filled by the first full BFS
        self.qdist_maps: List[Dict[int, float]] = []
        self.qdist_levels: List[Buckets] = []
        self.qd: Dict[int, float] = {}
        self.qd_levels: Buckets = {}

    # ------------------------------------------------------------------
    # butterfly bookkeeping (Algorithms 3, 6, 7)
    # ------------------------------------------------------------------
    def _full_count(self, ps: PairState) -> None:
        """Algorithm 3 on the pair's bipartite graph + leader refresh."""
        t = time.perf_counter()
        ps.chi = butterfly_degrees(ps.bp)
        self.stats["butterfly_counting"] += 1
        ps.satisfied = leaders_clear(ps.chi, ps.bp.left, ps.bp.right, self.b)
        self.stats["leader_time"] += time.perf_counter() - t
        if self.fast and ps.satisfied:
            self._identify_leaders(ps)

    def _identify_leaders(self, ps: PairState) -> None:
        """Algorithm 6 on both sides: a leader with a large butterfly
        degree near each query."""
        t = time.perf_counter()
        for side in (0, 1):
            q = self.queries[ps.ia if side == 0 else ps.ib]
            p = identify_leader(self.g, q, ps.chi, ps.side_vertices(side), self.b)
            ps.leaders[side] = p
            ps.leader_chi[side] = ps.chi.get(p, 0)
        self.stats["leader_time"] += time.perf_counter() - t

    def _leader_update_on_delete(self, ps: PairState, v: int) -> None:
        """Algorithm 7 for both leaders of ``ps`` before ``v`` leaves ``bp``."""
        for side in (0, 1):
            p = ps.leaders[side]
            if p is None:
                continue
            new = update_leader_on_delete(ps.bp, p, ps.leader_chi[side], v)
            if new is None:
                ps.leaders[side] = None
            else:
                ps.leader_chi[side] = new

    # ------------------------------------------------------------------
    # deletion + core maintenance (Algorithm 4)
    # ------------------------------------------------------------------
    def _delete_and_maintain(self, S: Set[int]) -> List[int]:
        """Remove ``S`` and cascade-peel to restore all k_i-cores.

        Returns every deleted vertex in deletion order. Butterfly
        structures are updated per deleted vertex (leaders first, per
        Algorithm 7, then the bipartite adjacency).
        """
        queue = deque(S)
        gone: List[int] = []
        t_leader = 0.0
        while queue:
            v = queue.popleft()
            if v not in self.g:
                continue
            lab = self.g.labels[v]
            if self.fast:
                t = time.perf_counter()
                for ps in self.pairs_by_label.get(lab, ()):
                    self._leader_update_on_delete(ps, v)
                t_leader += time.perf_counter() - t
            for ps in self.pairs_by_label.get(lab, ()):
                ps.bp.remove_vertex(v)
            same = [u for u in self.g.adj[v] if self.g.labels[u] == lab]
            self.g.remove_vertex(v)
            self.hdeg.pop(v, None)
            gone.append(v)
            k = self.k_of.get(lab, 0)
            for u in same:
                self.hdeg[u] -= 1
                if self.hdeg[u] < k:
                    queue.append(u)
        self.stats["leader_time"] += t_leader
        return gone

    def _check_feasible(self) -> bool:
        """Algorithm 4's butterfly check / Def.-7 connectivity (Alg 9).

        Each pair is refreshed first: a full count unless, in fast mode,
        both leaders still witness ``b``.
        """
        for ps in self.pairs:
            witnessed = self.fast and all(
                ps.leaders[s] is not None
                and ps.leaders[s] in self.g
                and ps.leader_chi[s] >= self.b
                for s in (0, 1)
            )
            if witnessed:
                ps.satisfied = True
            else:
                self._full_count(ps)
        return groups_connected(
            len(self.labels), [(ps.ia, ps.ib) for ps in self.pairs if ps.satisfied]
        )

    # ------------------------------------------------------------------
    # query distances (full BFS vs Algorithm 5)
    # ------------------------------------------------------------------
    def _bfs_qd(self) -> Tuple[List[Dict[int, float]], Dict[int, float]]:
        """A full BFS per query and their max-combine (Def. 5)."""
        maps = [bfs_distances(self.g, q) for q in self.queries]
        qd = {v: 0.0 for v in self.g.adj}
        for dq in maps:
            for v in self.g.adj:
                if dq[v] > qd[v]:
                    qd[v] = dq[v]
        return maps, qd

    def _farthest(self) -> Tuple[float, Set[int]]:
        """The farthest layer: Online mode runs a full BFS per query
        (Algorithm 1's distance step); LP mode reads the top bucket of the
        maintained qd, after one full BFS on the first call."""
        t = time.perf_counter()
        if not self.fast:
            qd = self._bfs_qd()[1]
            self.stats["qdist_time"] += time.perf_counter() - t
            return farthest_layer(qd)
        if not self.qdist_maps:
            self.qdist_maps, self.qd = self._bfs_qd()
            self.qdist_levels = [bucket_levels(dq) for dq in self.qdist_maps]
            self.qd_levels = bucket_levels(self.qd)
            self.stats["qdist_time"] += time.perf_counter() - t
        dmax = max(self.qd_levels)
        return dmax, self.qd_levels[dmax]

    def _update_qd(self, gone: List[int]) -> None:
        """Algorithm 5 on every query's map, then re-combine qd only at the
        deleted vertices and the re-labeled ones."""
        qd, levels = self.qd, self.qd_levels
        for v in gone:
            rebucket(levels, v, qd.pop(v))
        touched: Set[int] = set()
        for dq, buckets in zip(self.qdist_maps, self.qdist_levels):
            touched.update(fast_update(self.g, dq, buckets, gone))
        for v in touched:
            new = max(dq[v] for dq in self.qdist_maps)
            if new != qd[v]:
                rebucket(levels, v, qd[v], new)
                qd[v] = new

    def _delete(self, S: Set[int]) -> bool:
        """Algorithm 4 peeling after deleting ``S``, then (LP mode)
        Algorithm 5 on the maintained distances; returns whether the
        graph is still feasible."""
        gone = self._delete_and_maintain(S)
        if self.qdist_maps:
            t = time.perf_counter()
            self._update_qd(gone)
            self.stats["qdist_time"] += time.perf_counter() - t
        return self._check_feasible()

    # ------------------------------------------------------------------
    # main loop (Algorithm 1 / 9)
    # ------------------------------------------------------------------
    def run(self) -> Optional[BCCResult]:
        """Run the greedy refinement; return the best BCC snapshot or None."""
        best, best_qd, self.stats["iterations"] = greedy_peel(
            self.g,
            self.queries,
            self._farthest,
            self._delete,
            max_iterations=self.max_iterations,
        )
        if best is None:
            return None
        return BCCResult(self.g0.induced(best), self.queries, best_qd, dict(self.stats))
