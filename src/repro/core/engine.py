"""The greedy BCC refinement engine (Algorithms 1, 4, 5, 6, 7, 9).

One engine drives all BCC variants:

* **Online mode** (``fast=False``): Algorithm 1 verbatim — full BFS
  query distances every iteration, full butterfly recount (Algorithm 3)
  every iteration.
* **LP mode** (``fast=True``): the Section-6 accelerations — incremental
  query-distance updates (Algorithm 5), leader-pair identification
  (Algorithm 6), and O(d²) leader butterfly-degree updates (Algorithm
  7); full recounts happen only when a leader is deleted or drops
  below ``b``.

Both modes use bulk deletion (all vertices at the maximum query
distance are removed per iteration), as all methods do in the paper's
experiments. For m > 2 query labels the engine maintains one
:class:`PairState` per label pair with cross edges and checks Def.-7
cross-group connectivity instead of the single leader-pair condition
(Algorithm 9).

Instrumentation (``BCCResult.stats``) backs Table 4: ``qdist_time``,
``leader_time`` (Alg 6+7 / full-recount time), ``butterfly_counting``
(number of Algorithm-3 invocations), ``iterations``, ``total_time``.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..local.bfs import INF, bfs_distances
from ..local.butterfly import Bipartite, butterfly_degrees
from ..local.graph import LocalGraph
from .fastdist import fast_update
from .leader import identify_leader, update_leader_on_delete
from .model import BCCResult, InvalidQuery, groups_connected, leaders_clear


@dataclass
class PairState:
    """Butterfly bookkeeping between the groups of two query labels."""

    ia: int
    ib: int
    bp: Bipartite
    chi: Dict[int, int] = field(default_factory=dict)
    leaders: List[Optional[int]] = field(default_factory=lambda: [None, None])
    leader_chi: List[int] = field(default_factory=lambda: [0, 0])
    satisfied: bool = True

    def side_vertices(self, side: int) -> Set[int]:
        return self.bp.left if side == 0 else self.bp.right


class RefinementEngine:
    """Greedy diameter-shrinking refinement of a candidate BCC ``g0``.

    ``chi`` optionally carries the butterfly degrees that Algorithm 2's
    feasibility check already counted on ``g0``, per label pair ``(i, j)``
    in query order (``find_g0_local(..., chi=...)`` fills it); those
    pairs start from it instead of a fresh Algorithm-3 count. ``g0``
    itself is not modified, and must not be until :meth:`run` returns.
    """

    def __init__(
        self,
        g0: LocalGraph,
        queries: Sequence[int],
        ks: Sequence[int],
        b: int,
        *,
        fast: bool = False,
        rho: int = 3,
        max_iterations: int = 100_000,
        chi: Optional[Mapping[Tuple[int, int], Dict[int, int]]] = None,
    ):
        self.g0 = g0
        self.g = g0.copy()
        self.g0_vertices = set(g0.vertices)
        self.queries = [int(q) for q in queries]
        missing = [q for q in self.queries if q not in g0]
        if missing:
            raise InvalidQuery(f"query vertices {missing} are not in the candidate graph")
        self.labels = [g0.label(q) for q in self.queries]
        if len(set(self.labels)) != len(self.labels):
            raise InvalidQuery(f"query labels must differ, got {self.labels}")
        self.k_of = dict(zip(self.labels, ks))
        self.q_of = dict(zip(self.labels, self.queries))
        self.b = int(b)
        self.fast = fast
        self.rho = rho
        self.max_iterations = max_iterations
        self.stats: Dict[str, float] = {
            "qdist_time": 0.0,
            "leader_time": 0.0,
            "butterfly_counting": 0,
            "iterations": 0,
            "g0_size": len(g0),
        }
        # homogeneous degree per vertex (same-label neighbours) for core peeling
        self.hdeg: Dict[int, int] = {
            v: sum(1 for u in self.g.adj[v] if self.g.labels[u] == self.g.labels[v])
            for v in self.g.adj
        }
        # one PairState per label pair with cross edges in g0
        self.pairs: List[PairState] = []
        self.pairs_by_label: Dict[object, List[PairState]] = {l: [] for l in self.labels}
        groups = [self.g.vertices_with_label(l) for l in self.labels]
        for i, j in combinations(range(len(self.labels)), 2):
            edges = [
                (u, v) for u in groups[i] for v in self.g.adj[u] if v in groups[j]
            ]
            if len(self.labels) > 2 and not edges:
                continue  # this label pair interacts only via others
            ps = PairState(i, j, Bipartite(groups[i], groups[j], edges))
            self.pairs.append(ps)
            self.pairs_by_label[self.labels[i]].append(ps)
            self.pairs_by_label[self.labels[j]].append(ps)
        # initial butterfly count (unless Algorithm 2 handed it over)
        # + (fast mode) leader identification
        given = chi or {}
        for ps in self.pairs:
            if (ps.ia, ps.ib) in given:
                self._set_chi(ps, given[ps.ia, ps.ib])
            else:
                self._full_count(ps)
        # incremental distance maps per query (LP mode computes lazily too,
        # but the first computation is a full BFS either way)
        self.dist: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    # butterfly bookkeeping (Algorithms 3, 6, 7)
    # ------------------------------------------------------------------
    def _full_count(self, ps: PairState) -> None:
        """Algorithm 3 on the pair's bipartite graph + leader refresh."""
        t = time.perf_counter()
        chi = butterfly_degrees(ps.bp)
        self.stats["butterfly_counting"] += 1
        self.stats["leader_time"] += time.perf_counter() - t
        self._set_chi(ps, chi)

    def _set_chi(self, ps: PairState, chi: Dict[int, int]) -> None:
        """Adopt a full count of the pair's butterfly degrees + leader refresh."""
        t = time.perf_counter()
        ps.chi = chi
        ps.satisfied = leaders_clear(chi, ps.bp.left, ps.bp.right, self.b)
        if self.fast and ps.satisfied:
            for side in (0, 1):
                p = self._identify_leader(ps, side)
                ps.leaders[side] = p
                ps.leader_chi[side] = ps.chi.get(p, 0)
        self.stats["leader_time"] += time.perf_counter() - t

    def _identify_leader(self, ps: PairState, side: int) -> int:
        """Algorithm 6: a leader with a large butterfly degree near the query."""
        lab = self.labels[ps.ia if side == 0 else ps.ib]
        return identify_leader(
            self.g, self.q_of[lab], ps.chi, ps.side_vertices(side), self.b, self.rho
        )

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

    def _check_feasible(self, recount: bool = True) -> bool:
        """Algorithm 4's butterfly check / Def.-7 connectivity (Alg 9).

        With ``recount`` the pairs are refreshed first (a full count
        unless, in fast mode, both leaders still witness ``b``).
        """
        if recount:
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
    def _query_distances_full(self) -> Dict[int, float]:
        """Full BFS per query (Algorithm 1's baseline distance step)."""
        t = time.perf_counter()
        for q in self.queries:
            self.dist[q] = bfs_distances(self.g, q)
        self.stats["qdist_time"] += time.perf_counter() - t
        return self._recombine_qd()

    def _fast_update(self, q: int, deleted: List[int], old: Dict[int, float]) -> None:
        """Algorithm 5: partial BFS re-labeling after a deletion batch."""
        fast_update(self.g, self.dist[q], deleted, old)

    # ------------------------------------------------------------------
    # main loop (Algorithm 1 / 9)
    # ------------------------------------------------------------------
    def run(self) -> Optional[BCCResult]:
        """Run the greedy refinement; return the best BCC snapshot or None."""
        t0 = time.perf_counter()
        best: Optional[Set[int]] = None
        best_qd = INF
        # Def.-7 connectivity is the feasibility criterion; individual
        # unsatisfied pairs are fine for m > 2 as long as a cross-group
        # path connects every label pair.
        feasible = self._check_feasible(recount=False)
        while self.stats["iterations"] < self.max_iterations:
            self.stats["iterations"] += 1
            if any(q not in self.g for q in self.queries):
                break
            comp = self.g.component_of(self.queries[0])
            if any(q not in comp for q in self.queries[1:]):
                break
            if len(comp) < len(self.g):
                S = self.g.vertices - comp
                old_dists = {q: dict(self.dist[q]) for q in self.queries} if self.dist else None
                gone = self._delete_and_maintain(S)
                if self.fast and self.dist:
                    t = time.perf_counter()
                    for q in self.queries:
                        self._fast_update(q, gone, old_dists[q])
                    self.stats["qdist_time"] += time.perf_counter() - t
                feasible = self._check_feasible()
                if not feasible:
                    break
                continue
            if self.fast and self.dist:
                qd = self._recombine_qd()  # maintained by Algorithm 5
            else:
                qd = self._query_distances_full()
            if feasible:
                dmax = max(qd.values(), default=0.0)
                if dmax < best_qd:
                    best_qd = dmax
                    best = set(self.g.vertices)
            dmax = max(qd.values(), default=0.0)
            S = {v for v, d in qd.items() if d >= dmax} - set(self.queries)
            if not S or dmax <= 0:
                break
            old_dists = {q: dict(self.dist[q]) for q in self.queries}
            gone = self._delete_and_maintain(S)
            if self.fast:
                t = time.perf_counter()
                for q in self.queries:
                    self._fast_update(q, gone, old_dists[q])
                self.stats["qdist_time"] += time.perf_counter() - t
            feasible = self._check_feasible()
            if not feasible:
                break
        self.stats["total_time"] = time.perf_counter() - t0
        if best is None:
            return None
        return BCCResult(self.g0.induced(best), self.queries, best_qd, dict(self.stats))

    def _recombine_qd(self) -> Dict[int, float]:
        """Max-over-queries combine of the maintained distance maps."""
        t = time.perf_counter()
        qd = {v: 0.0 for v in self.g.adj}
        for q in self.queries:
            dq = self.dist[q]
            for v in self.g.adj:
                d = dq.get(v, INF)
                if d > qd[v]:
                    qd[v] = d
        self.stats["qdist_time"] += time.perf_counter() - t
        return qd
