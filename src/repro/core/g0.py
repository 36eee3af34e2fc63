"""Algorithm 2 — finding the maximal candidate BCC ``G0``.

Two interchangeable engines with identical semantics (cross-checked in
tests). Both read the graph's memoised per-label coreness (the
BCindex's first component): the k-core of a label group is
``{v : delta(v) >= k}``, so each query's core component is a coreness
filter plus one BFS over the query's own label.

* :func:`find_g0_spark` — the distributed implementation: the filter
  and one multi-source BFS from all queries run as DataFrame dataflow
  over the full graph; only the resulting candidate (community sized)
  is collected to the driver.
* :func:`find_g0_local` — driver-local variant used by the per-query
  experiment loops, where thousands of G0 extractions would otherwise
  each pay Spark job-scheduling latency (see DESIGN.md section 2).

Both end in the same driver-side feasibility check,
:func:`feasible_candidate`, which generalizes Algorithm 2 from 2 to m
query labels: for m > 2 it is cross-group connectivity (Def. 7) instead
of a single leader-pair check. It returns a :class:`Candidate` holding
the pair states it built (cross bipartite graph, χ, satisfied), and the
refinement engine starts from them: a query builds each label pair's
bipartite graph and χ here only.
"""
from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import combinations
from operator import or_
from typing import List, Mapping, Optional, Sequence, Set

from pyspark.sql import functions as F

from ..graphlib.bfs import bfs_distances
from ..graphlib.labeled import SparkLabeledGraph
from ..local.butterfly import butterfly_degrees
from ..local.graph import LocalGraph
from ..local.kcore import label_coreness
from .model import (
    Candidate, PairState, check_query, cross_bipartite, groups_connected, leaders_clear
)


def feasible_candidate(
    g0: LocalGraph, queries: Sequence[int], ks: Sequence[int], b: int
) -> Optional[Candidate]:
    """Algorithm 2's butterfly check on ``g0``, whose query vertices carry
    distinct labels.

    Builds one :class:`PairState` per label pair ``(i, j)`` (query order;
    for m > 2 only pairs with cross edges) and counts its χ (Algorithm 3).
    ``g0`` is feasible if the satisfied pairs connect every label group:
    the leader-pair check for m = 2, Def.-7 connectivity for m > 2.
    Returns the :class:`Candidate` holding those pairs, or ``None``.
    """
    labels = [g0.label(q) for q in queries]
    groups = [g0.vertices_with_label(lab) for lab in labels]
    m = len(labels)
    pairs: List[PairState] = []
    for i, j in combinations(range(m), 2):
        bp = cross_bipartite(g0, groups[i], groups[j])
        if m > 2 and not any(bp.adj.values()):
            continue
        chi = butterfly_degrees(bp)
        pairs.append(
            PairState(i, j, bp, chi, satisfied=leaders_clear(chi, bp.left, bp.right, b))
        )
    if not groups_connected(m, [(ps.ia, ps.ib) for ps in pairs if ps.satisfied]):
        return None
    return Candidate(g0, [int(q) for q in queries], labels, list(ks), int(b), pairs)


def _core_component(g: LocalGraph, core: Mapping[int, int], q: int, k: int) -> Set[int]:
    """The connected component of ``q`` in the k-core of its label group:
    BFS over same-label vertices with coreness >= k."""
    labels = g.labels
    lab = labels[q]
    comp = {q}
    frontier = deque([q])
    while frontier:
        v = frontier.popleft()
        for u in g.adj[v]:
            if u not in comp and labels[u] == lab and core[u] >= k:
                comp.add(u)
                frontier.append(u)
    return comp


def find_g0_local(
    g: LocalGraph,
    queries: Sequence[int],
    ks: Sequence[int],
    b: int,
) -> Optional[Candidate]:
    """Driver-local Algorithm 2 (generalized to m labels).

    Returns the candidate ``G0 = L ∪ B ∪ R`` (induced subgraph on the
    union of the per-label core components containing each query) with
    the pair states of its feasibility check, or ``None`` if a query's
    coreness is below its k or the butterfly check fails. A query outside
    the query rule raises :class:`~repro.core.model.InvalidQuery`.
    """
    check_query(queries, [g.labels.get(q) for q in queries], ks)
    core = label_coreness(g)
    if any(core[q] < k for q, k in zip(queries, ks)):
        return None
    union: set = set()
    for q, k in zip(queries, ks):
        union |= _core_component(g, core, q, k)
    return feasible_candidate(g.induced(union), queries, ks, b)


def find_g0_spark(
    sg: SparkLabeledGraph,
    queries: Sequence[int],
    ks: Sequence[int],
    b: int,
) -> Optional[Candidate]:
    """Distributed Algorithm 2: the graph-sized passes stay in Spark.

    Keeps the vertices with ``label = l_i`` and per-label coreness
    ``>= k_i`` for some query ``q_i`` (``sg.label_coreness()``), then
    runs one BFS from all queries over the homogeneous edges among them.
    The labels differ, so the reached set is the union of the per-query
    core components. It is collected, and the same feasibility check as
    :func:`find_g0_local` runs on the driver. The query rule is checked
    on the queries' collected rows.
    """
    core = sg.label_coreness()
    rows = core.where(F.col("id").isin([int(q) for q in queries])).collect()
    by_id = {int(r["id"]): r for r in rows}
    labs = [by_id[int(q)]["label"] if int(q) in by_id else None for q in queries]
    check_query(queries, labs, ks)
    if any(by_id[int(q)]["coreness"] < k for q, k in zip(queries, ks)):
        return None
    keep = core.where(
        reduce(
            or_,
            [
                (F.col("label") == lab) & (F.col("coreness") >= int(k))
                for lab, k in zip(labs, ks)
            ],
        )
    )
    reached = bfs_distances(sg.induced(keep).homogeneous(), queries)
    return feasible_candidate(sg.induced(reached).to_local(), queries, ks, b)
