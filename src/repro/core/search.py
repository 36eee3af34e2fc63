"""Top-level BCC search entry points: Online-BCC and LP-BCC.

``online_bcc`` is Algorithm 1 (with Algorithm 2's G0 discovery and
Algorithm 4's maintenance); ``lp_bcc`` is the same framework equipped
with the Section-6 accelerations (Algorithms 5, 6, 7). Both accept
either a driver-local graph or a Spark graph for the G0 phase; the
refinement runs on the collected candidate either way (DESIGN.md §2),
starting from the pair states of Algorithm 2's feasibility check.

For m > 2 queries these same entry points perform multi-labeled BCC
search (Algorithm 9); the engine switches the feasibility check to
Def.-7 cross-group connectivity automatically.
"""
from __future__ import annotations

import time
from typing import Optional, Sequence, Union

from ..graphlib.labeled import SparkLabeledGraph
from ..local.graph import LocalGraph
from ..local.kcore import label_coreness
from .engine import RefinementEngine
from .g0 import find_g0_local, find_g0_spark
from .model import BCCResult, check_query

GraphLike = Union[LocalGraph, SparkLabeledGraph]


def default_ks(g: LocalGraph, queries: Sequence[int]) -> list[int]:
    """The paper's default parameters: k_i = coreness of q_i within its
    label group (homogeneous subgraph), read from the graph's memoised
    per-label coreness. Raises :class:`InvalidQuery` for a query outside
    the query rule."""
    check_query(queries, [g.labels.get(q) for q in queries])
    core = label_coreness(g)
    return [core[q] for q in queries]


def _search(
    g: GraphLike, queries: Sequence[int], ks: Sequence[int], b: int, *, fast: bool
) -> Optional[BCCResult]:
    """Algorithm 2, then the engine on its candidate. ``total_time`` is the
    wall time of the whole call, ``g0_time`` Algorithm 2's part of it."""
    t0 = time.perf_counter()
    find = find_g0_spark if isinstance(g, SparkLabeledGraph) else find_g0_local
    candidate = find(g, queries, ks, b)
    g0_time = time.perf_counter() - t0
    if candidate is None:
        return None
    res = RefinementEngine(candidate, fast=fast).run()
    if res is not None:
        res.stats["g0_time"] = g0_time
        res.stats["total_time"] = time.perf_counter() - t0
    return res


def online_bcc(
    g: GraphLike, queries: Sequence[int], ks: Sequence[int], b: int
) -> Optional[BCCResult]:
    """Algorithm 1: greedy 2-approximation BCC search, no accelerations."""
    return _search(g, queries, ks, b, fast=False)


def lp_bcc(
    g: GraphLike, queries: Sequence[int], ks: Sequence[int], b: int
) -> Optional[BCCResult]:
    """Online-BCC + fast query distances (Alg 5) + leader pair (Algs 6-7)."""
    return _search(g, queries, ks, b, fast=True)
