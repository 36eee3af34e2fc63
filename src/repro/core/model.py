"""BCC model definitions and from-scratch verification.

``is_bcc`` re-checks every condition of Definition 4 (and Definition 8
for m > 2) against a candidate subgraph, independent of the search
machinery — every community returned by any of our algorithms is
re-verified with it in tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..local.bfs import diameter as local_diameter
from ..local.butterfly import Bipartite, butterfly_degrees
from ..local.graph import LocalGraph


class InvalidQuery(ValueError):
    """A query outside :func:`check_query`'s rule, raised by every BCC
    entry point (``is_bcc`` returns ``False``); for the label-blind
    baselines, a query vertex not in the graph (:func:`known_queries`)."""


def known_queries(g: LocalGraph, queries: Sequence[int]) -> List[int]:
    """``queries`` as ints; raises :class:`InvalidQuery` for one not in ``g``."""
    missing = [q for q in queries if q not in g]
    if missing:
        raise InvalidQuery(f"query vertices {missing} are not in the graph")
    return [int(q) for q in queries]


def check_query(
    queries: Sequence[int], labels: Sequence[Optional[object]], ks: Optional[Sequence[int]] = None
) -> None:
    """The BCC query rule of Defs. 4 and 8: m >= 2 query vertices of the
    graph with pairwise distinct labels and, when ``ks`` is given, one
    k_i for each. ``labels`` are the queries' looked-up labels, ``None``
    for a vertex not in the graph. Raises :class:`InvalidQuery`."""
    missing = [q for q, lab in zip(queries, labels) if lab is None]
    if missing:
        raise InvalidQuery(f"query vertices {missing} are not in the graph")
    if len(queries) < 2:
        raise InvalidQuery(f"a BCC query needs two or more vertices, got {list(queries)}")
    if len(set(labels)) != len(labels):
        raise InvalidQuery(f"query vertices {list(queries)} repeat a label: {list(labels)}")
    if ks is not None and len(ks) != len(queries):
        raise InvalidQuery(f"{len(ks)} ks for {len(queries)} query vertices")


@dataclass
class BCCResult:
    """A community returned by a BCC search.

    ``graph`` is the induced subgraph; ``qdist`` its query distance
    (Def. 5) at return time; ``stats`` holds instrumentation used by
    Table 4 (timers in seconds, counters as ints).
    """

    graph: LocalGraph
    queries: List[int]
    qdist: float
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def vertices(self) -> Set[int]:
        return self.graph.vertices

    def diameter(self) -> float:
        return local_diameter(self.graph)


@dataclass
class PairState:
    """Butterfly bookkeeping between the groups of query labels ``ia`` and
    ``ib`` (indices in query order): their cross bipartite graph, its
    butterfly degrees ``chi``, whether a leader on each side clears ``b``
    (Def. 4 condition 4), and the engine's LP-mode leaders."""

    ia: int
    ib: int
    bp: Bipartite
    chi: Dict[int, int] = field(default_factory=dict)
    leaders: List[Optional[int]] = field(default_factory=lambda: [None, None])
    leader_chi: List[int] = field(default_factory=lambda: [0, 0])
    satisfied: bool = True

    def side_vertices(self, side: int) -> Set[int]:
        return self.bp.left if side == 0 else self.bp.right


@dataclass
class Candidate:
    """A feasible candidate BCC ``G0`` (Algorithm 2's output) and the
    pair states its feasibility check built.

    ``queries`` are in the graph with pairwise distinct ``labels``, and
    the satisfied ``pairs`` connect every label group (Def. 7), so the
    candidate is feasible by construction. ``pairs`` holds one state per
    label pair with cross edges (every pair when m = 2). The
    :class:`~repro.core.engine.RefinementEngine` that consumes a
    candidate mutates those bipartites, so a candidate feeds one engine.
    """

    graph: LocalGraph
    queries: List[int]
    labels: List[object]
    ks: List[int]
    b: int
    pairs: List[PairState]


def group_partition(g: LocalGraph, labels: Sequence[object]) -> List[Set[int]]:
    """Vertex sets per label, in label order."""
    return [g.vertices_with_label(lab) for lab in labels]


def cross_bipartite(g: LocalGraph, va: Set[int], vb: Set[int]) -> Bipartite:
    """The bipartite cross graph between two vertex groups of ``g``."""
    edges = [(u, v) for u in va for v in g.adj[u] if v in vb]
    return Bipartite(va, vb, edges)


def leaders_clear(chi: Mapping[int, int], va: Set[int], vb: Set[int], b: int) -> bool:
    """Condition 4 of Def. 4 given the pair's butterfly degrees: a
    leader on each side with butterfly degree >= b."""
    max_a = max((chi[v] for v in va), default=0)
    max_b = max((chi[v] for v in vb), default=0)
    return max_a >= b and max_b >= b


def pair_satisfied(g: LocalGraph, va: Set[int], vb: Set[int], b: int) -> bool:
    """Condition 4 of Def. 4 for one group pair of ``g``."""
    return leaders_clear(butterfly_degrees(cross_bipartite(g, va, vb)), va, vb, b)


def groups_connected(m: int, links: Iterable[Tuple[int, int]]) -> bool:
    """Def. 7: the label graph on groups ``0..m-1`` with an edge per
    satisfied pair in ``links`` is connected (union-find). For m = 2
    this is just "the one pair is satisfied"."""
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in links:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(m)}) == 1


def is_bcc(g: LocalGraph, queries: Sequence[int], ks: Sequence[int], b: int) -> bool:
    """Full check of Problem 1 conditions 1-2 (Def. 4 / Def. 8).

    * the query rule (:func:`check_query`) on ``g``'s labels;
    * connected subgraph containing all queries;
    * exactly the m query labels present;
    * each label group induces a k_i-core (over homogeneous edges);
    * m = 2: leader pair with butterfly degree >= b;
      m > 2: cross-group connectivity (Def. 7) over the label graph.
    """
    labels = [g.labels.get(q) for q in queries]
    try:
        check_query(queries, labels, ks)
    except InvalidQuery:
        return False
    if not g.connected(queries):
        return False
    if g.label_set() != set(labels):
        return False
    groups = group_partition(g, labels)
    for k, vs in zip(ks, groups):
        sub = g.induced(vs)
        if any(len(sub.adj[v]) < k for v in sub.adj):
            return False
    return groups_connected(
        len(labels),
        (
            (i, j)
            for i, j in combinations(range(len(labels)), 2)
            if pair_satisfied(g, groups[i], groups[j], b)
        ),
    )
