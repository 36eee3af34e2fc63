"""Algorithm 2 — finding the maximal candidate BCC ``G0``.

Two interchangeable engines with identical semantics (cross-checked in
tests):

* :func:`find_g0_spark` — the distributed implementation: per-label
  k-core peeling, connected components, and butterfly counting all run
  as DataFrame dataflow over the full graph; only the resulting
  candidate (community sized) is collected to the driver.
* :func:`find_g0_local` — driver-local variant used by the per-query
  experiment loops, where thousands of G0 extractions would otherwise
  each pay Spark job-scheduling latency (see DESIGN.md section 2). It
  reads the graph's memoised per-label coreness (the BCindex's first
  component): the k-core of a label group is ``{v : delta(v) >= k}``,
  so each query's core component is one label-restricted BFS.

Both generalize Algorithm 2 from 2 to m query labels: for m > 2 the
feasibility check is cross-group connectivity (Def. 7) instead of a
single leader-pair check.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from pyspark.sql import functions as F

from ..graphlib.butterfly import butterfly_degrees as spark_butterfly_degrees
from ..graphlib.components import component_of
from ..graphlib.kcore import kcore as spark_kcore
from ..graphlib.labeled import SparkLabeledGraph
from ..local.butterfly import butterfly_degrees
from ..local.graph import LocalGraph
from ..local.kcore import label_coreness
from .model import cross_bipartite, groups_connected, leaders_clear

PairChi = Dict[Tuple[int, int], Dict[int, int]]


def _labels_of(queries: Sequence[int], label_lookup) -> Optional[List[object]]:
    labs = [label_lookup(q) for q in queries]
    if any(l is None for l in labs) or len(set(labs)) != len(labs):
        return None
    return labs


def _connectivity_ok(
    g0: LocalGraph, labels: Sequence[object], b: int, chi: Optional[PairChi] = None
) -> bool:
    """Feasibility: leader-pair check (m=2) / cross-group connectivity (m>2).

    The butterfly degrees counted per label pair ``(i, j)`` are stored
    in ``chi`` when given.
    """
    groups = [g0.vertices_with_label(lab) for lab in labels]
    m = len(labels)
    links = []
    for i, j in combinations(range(m), 2):
        bp = cross_bipartite(g0, groups[i], groups[j])
        if m > 2 and not any(bp.adj[v] for v in bp.adj):
            continue
        pair_chi = butterfly_degrees(bp)
        if chi is not None:
            chi[i, j] = pair_chi
        if leaders_clear(pair_chi, groups[i], groups[j], b):
            links.append((i, j))
    return groups_connected(m, links)


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
    *,
    chi: Optional[PairChi] = None,
) -> Optional[LocalGraph]:
    """Driver-local Algorithm 2 (generalized to m labels).

    Returns the candidate ``G0 = L ∪ B ∪ R`` (induced subgraph on the
    union of the per-label core components containing each query), or
    ``None`` if any core/butterfly condition already fails. When ``chi``
    is given, the feasibility check's butterfly degrees are stored in it
    per label pair ``(i, j)`` (query order), for ``RefinementEngine`` to
    reuse instead of counting them again.
    """
    if any(q not in g for q in queries):
        return None
    labs = _labels_of(queries, lambda q: g.label(q))
    if labs is None:
        return None
    core = label_coreness(g)
    if any(core[q] < k for q, k in zip(queries, ks)):
        return None
    union: set = set()
    for q, k in zip(queries, ks):
        union |= _core_component(g, core, q, k)
    g0 = g.induced(union)
    if not _connectivity_ok(g0, labs, b, chi):
        return None
    return g0


def find_g0_spark(
    sg: SparkLabeledGraph, queries: Sequence[int], ks: Sequence[int], b: int
) -> Optional[LocalGraph]:
    """Distributed Algorithm 2: the heavy passes stay in Spark.

    Per query label: induce the homogeneous subgraph, peel to the
    k_i-core, keep the connected component containing the query. Then
    collect the union, count butterflies on the cross bipartite graph
    distributed, and check feasibility. The returned candidate is the
    driver-local ``G0``.
    """
    vrows = sg.vertices.where(F.col("id").isin([int(q) for q in queries])).collect()
    lab_by_id = {int(r["id"]): r["label"] for r in vrows}
    if len(lab_by_id) != len(queries):
        return None
    labs = _labels_of(queries, lambda q: lab_by_id.get(int(q)))
    if labs is None:
        return None

    keep_frames = []
    for q, lab, k in zip(queries, labs, ks):
        group = sg.label_group(lab)
        core = spark_kcore(group, k)
        if core.vertices.where(F.col("id") == int(q)).isEmpty():
            return None
        keep_frames.append(component_of(core, int(q)))
    union_ids = keep_frames[0]
    for f in keep_frames[1:]:
        union_ids = union_ids.unionAll(f)
    g0_spark = sg.induced(union_ids)

    if len(labs) == 2:
        # distributed butterfly feasibility before collecting
        ce = g0_spark.cross_edges(labs[0], labs[1])
        chi = spark_butterfly_degrees(ce)
        lefts = ce.select(F.col("left").alias("id")).distinct()
        rights = ce.select(F.col("right").alias("id")).distinct()
        ml = chi.join(lefts, "id", "semi").agg(F.max("chi")).collect()[0][0]
        mr = chi.join(rights, "id", "semi").agg(F.max("chi")).collect()[0][0]
        if (ml or 0) < b or (mr or 0) < b:
            return None
        return g0_spark.to_local()

    g0 = g0_spark.to_local()
    if not _connectivity_ok(g0, labs, b):
        return None
    return g0
