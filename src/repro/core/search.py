"""Top-level BCC search entry points: Online-BCC and LP-BCC.

``online_bcc`` is Algorithm 1 (with Algorithm 2's G0 discovery and
Algorithm 4's maintenance); ``lp_bcc`` is the same framework equipped
with the Section-6 accelerations (Algorithms 5, 6, 7). Both accept
either a driver-local graph or a Spark graph for the G0 phase; the
refinement runs on the collected candidate either way (DESIGN.md §2).

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
from .g0 import PairChi, find_g0_local, find_g0_spark
from .model import BCCResult, InvalidQuery

GraphLike = Union[LocalGraph, SparkLabeledGraph]


def default_ks(g: LocalGraph, queries: Sequence[int]) -> list[int]:
    """The paper's default parameters: k_i = coreness of q_i within its
    label group (homogeneous subgraph), read from the graph's memoised
    per-label coreness."""
    core = label_coreness(g)
    missing = [q for q in queries if q not in core]
    if missing:
        raise InvalidQuery(f"query vertices {missing} are not in the graph")
    return [core[q] for q in queries]


def _find_g0(g: GraphLike, queries, ks, b, chi: PairChi) -> Optional[LocalGraph]:
    if isinstance(g, SparkLabeledGraph):
        return find_g0_spark(g, queries, ks, b)
    return find_g0_local(g, queries, ks, b, chi=chi)


def _search(
    g: GraphLike,
    queries: Sequence[int],
    ks: Sequence[int],
    b: int,
    *,
    fast: bool,
    rho: int = 3,
) -> Optional[BCCResult]:
    t0 = time.perf_counter()
    chi: PairChi = {}
    g0 = _find_g0(g, queries, ks, b, chi)
    g0_time = time.perf_counter() - t0
    if g0 is None:
        return None
    engine = RefinementEngine(g0, queries, ks, b, fast=fast, rho=rho, chi=chi)
    res = engine.run()
    if res is not None:
        res.stats["g0_time"] = g0_time
        res.stats["total_time"] = res.stats.get("total_time", 0.0) + g0_time
    return res


def online_bcc(
    g: GraphLike, queries: Sequence[int], ks: Sequence[int], b: int
) -> Optional[BCCResult]:
    """Algorithm 1: greedy 2-approximation BCC search, no accelerations."""
    return _search(g, queries, ks, b, fast=False)


def lp_bcc(
    g: GraphLike, queries: Sequence[int], ks: Sequence[int], b: int, rho: int = 3
) -> Optional[BCCResult]:
    """Online-BCC + fast query distances (Alg 5) + leader pair (Algs 6-7)."""
    return _search(g, queries, ks, b, fast=True, rho=rho)
