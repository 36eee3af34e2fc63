"""Answer checks, run outside the timed region.

Every answer must

* pass ``is_bcc`` with the ks the query ran with (``eff_ks`` for L²P);
* have the Def.-5 query distance that a from-scratch BFS over the
  returned community gives;
* equal a reference answer when the workload has one (Online-BCC for
  LP-BCC, the driver-local path for the Spark path).

``corruptions_caught`` feeds deliberately broken answers through the
same checks, so a checker that passes everything shows up as a failure.
``Checks`` applies them to each answer of a run as it arrives.
"""
from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

from repro.core.model import BCCResult, is_bcc
from repro.local.graph import LocalGraph


def query_distance(g: LocalGraph, queries: Sequence[int]) -> float:
    """Def. 5 recomputed from scratch: max over v of max over q of d(v, q)."""
    worst = 0.0
    for q in queries:
        dist = {q: 0}
        frontier = deque([q])
        while frontier:
            u = frontier.popleft()
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    frontier.append(w)
        if len(dist) < len(g):
            return float("inf")
        worst = max(worst, max(dist.values()))
    return float(worst)


def problems(
    res: Optional[BCCResult],
    queries: Sequence[int],
    ks: Optional[Sequence[int]],
    b: int,
    reference: Optional[BCCResult] = None,
    check_reference: bool = False,
) -> List[str]:
    """Empty when the answer passes every check; else what failed."""
    if res is None or ks is None:
        return ["no answer"]
    out = []
    if not is_bcc(res.graph, queries, ks, b):
        out.append("not a BCC")
    if query_distance(res.graph, queries) != res.qdist:
        out.append("qdist mismatch")
    if check_reference and (
        reference is None
        or reference.vertices != res.vertices
        or reference.qdist != res.qdist
    ):
        out.append("differs from reference")
    return out


def corruptions_caught(
    res: BCCResult, queries: Sequence[int], ks: Sequence[int], b: int, g: LocalGraph
) -> bool:
    """True when the correct answer ``res`` passes and each corruption fails."""
    far = next(v for v in g.adj if v not in res.vertices and not g.adj[v] & res.vertices)
    isolated = BCCResult(g.induced(res.vertices | {far}), list(queries), res.qdist)
    wrong_qdist = BCCResult(res.graph, list(queries), res.qdist + 1)
    other = BCCResult(g.induced(set(queries)), list(queries), res.qdist)
    cases = [(isolated, res), (wrong_qdist, res), (res, other)]
    return not problems(res, queries, ks, b, res, True) and all(
        problems(answer, queries, ks, b, ref, True) for answer, ref in cases
    )


class Checks:
    """Checks each answer of a workload ``w`` as it arrives.

    Called between timed queries; the reference answer is computed once
    per distinct query. Records what failed and the first good answer.
    """

    def __init__(self, w, b: int):
        self.w, self.b = w, b
        self.refs, self.problems, self.good = {}, [], None

    def __call__(self, qi: int, res: Optional[BCCResult], ks) -> bool:
        q = self.w.queries[qi][1]
        has_ref = self.w.reference is not None
        if has_ref and qi not in self.refs:
            self.refs[qi] = self.w.reference(q, ks)
        p = problems(res, q, ks, self.b, self.refs.get(qi), has_ref)
        if p:
            self.problems.append(f"query {qi} {q}: {', '.join(p)}")
        elif self.good is None:
            self.good = (res, q, ks)
        return not p
