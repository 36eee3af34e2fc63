"""Driver-local labeled graph.

``LocalGraph`` is the in-memory (adjacency-dict) representation used for
the per-query refinement loop of the BCC algorithms (Algorithms 1, 4-8).
Candidate graphs ``G0`` are community sized, so after the distributed
phase extracts them they are collected here and refined without paying
a Spark job per micro-iteration (see DESIGN.md section 2).

It doubles as the independent reference implementation that the
distributed tier (``repro.graphlib``) is cross-checked against.
"""
from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import pandas as pd

Edge = Tuple[int, int]


def canon(u: int, v: int) -> Edge:
    """Canonical undirected edge: (min, max)."""
    return (u, v) if u < v else (v, u)


class LocalGraph:
    """Undirected labeled graph with O(1) neighbor access.

    Vertices carry a label (any hashable; typically ``str``). Edges are
    undirected, simple (no self-loops, no parallels). All mutation goes
    through :meth:`add_vertex` / :meth:`add_edge` / :meth:`remove_edge` /
    :meth:`remove_vertex` / :meth:`remove_vertices` so ``adj`` and
    ``labels`` stay consistent and the per-label coreness memo (filled
    by :func:`repro.local.kcore.label_coreness`) is dropped.
    """

    def __init__(self) -> None:
        self.adj: Dict[int, Set[int]] = {}
        self.labels: Dict[int, object] = {}
        self.label_core_memo: Optional[Mapping[int, int]] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        labels: Mapping[int, object],
        vertices: Optional[Iterable[int]] = None,
    ) -> "LocalGraph":
        """Build from an edge iterable and a vertex->label mapping.

        ``vertices`` may add isolated vertices beyond edge endpoints.
        Every referenced vertex must have a label.
        """
        g = cls()
        for v in vertices if vertices is not None else ():
            g.add_vertex(v, labels[v])
        for u, v in edges:
            if u == v:
                continue
            g.add_vertex(u, labels[u])
            g.add_vertex(v, labels[v])
            g.adj[u].add(v)
            g.adj[v].add(u)
        return g

    @classmethod
    def from_pandas(cls, vdf: pd.DataFrame, edf: pd.DataFrame) -> "LocalGraph":
        """Build from vertex frame ``(id, label)`` and edge frame ``(src, dst)``."""
        labels = dict(zip(vdf["id"].astype(int), vdf["label"]))
        return cls.from_edges(
            zip(edf["src"].astype(int), edf["dst"].astype(int)),
            labels,
            vertices=labels.keys(),
        )

    def add_vertex(self, v: int, label: object) -> None:
        if v not in self.adj:
            self.adj[v] = set()
            self.labels[v] = label
            self.label_core_memo = None

    def add_edge(self, u: int, v: int, lu: object = None, lv: object = None) -> None:
        """Add the edge ``{u, v}``; an endpoint not yet in the graph is
        created with its label ``lu`` / ``lv``, which must then be given
        (a ``None`` label would read as "not in the graph")."""
        if u == v:
            return
        if u not in self.adj:
            self._add_endpoint(u, lu)
        if v not in self.adj:
            self._add_endpoint(v, lv)
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.label_core_memo = None

    def _add_endpoint(self, v: int, label: object) -> None:
        if label is None:
            raise ValueError(f"vertex {v} is not in the graph and add_edge got no label for it")
        self.add_vertex(v, label)

    # -- basic accessors ------------------------------------------------
    def __contains__(self, v: int) -> bool:
        return v in self.adj

    def __len__(self) -> int:
        return len(self.adj)

    @property
    def vertices(self) -> Set[int]:
        return set(self.adj)

    def num_edges(self) -> int:
        return sum(len(n) for n in self.adj.values()) // 2

    def edges(self) -> List[Edge]:
        return [(u, v) for u, ns in self.adj.items() for v in ns if u < v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def label(self, v: int) -> object:
        return self.labels[v]

    def label_set(self) -> Set[object]:
        return set(self.labels[v] for v in self.adj)

    def vertices_with_label(self, lab: object) -> Set[int]:
        return {v for v in self.adj if self.labels[v] == lab}

    # -- mutation -------------------------------------------------------
    def remove_edge(self, u: int, v: int) -> None:
        """Drop the edge ``{u, v}`` if present."""
        if v in self.adj.get(u, ()):
            self.adj[u].discard(v)
            self.adj[v].discard(u)
        self.label_core_memo = None

    def remove_vertex(self, v: int) -> None:
        for u in self.adj.pop(v, ()):  # pragma: no branch
            self.adj[u].discard(v)
        self.labels.pop(v, None)
        self.label_core_memo = None

    def remove_vertices(self, vs: Iterable[int]) -> None:
        for v in list(vs):
            if v in self.adj:
                self.remove_vertex(v)

    # -- derived graphs -------------------------------------------------
    def copy(self) -> "LocalGraph":
        g = LocalGraph()
        g.adj = {v: set(ns) for v, ns in self.adj.items()}
        g.labels = dict(self.labels)
        return g

    def induced(self, vs: Iterable[int]) -> "LocalGraph":
        """Subgraph induced by ``vs`` (restricted to existing vertices)."""
        keep = set(vs) & set(self.adj)
        g = LocalGraph()
        g.adj = {v: self.adj[v] & keep for v in keep}
        g.labels = {v: self.labels[v] for v in keep}
        return g

    # -- traversal ------------------------------------------------------
    def component_of(self, v: int) -> Set[int]:
        """Connected component containing ``v`` (empty set if absent)."""
        if v not in self.adj:
            return set()
        seen = {v}
        q = deque([v])
        while q:
            u = q.popleft()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        return seen

    def connected(self, us: Iterable[int]) -> bool:
        """True iff all of ``us`` are present and mutually reachable."""
        us = list(us)
        if any(u not in self.adj for u in us):
            return False
        if len(us) <= 1:
            return True
        comp = self.component_of(us[0])
        return all(u in comp for u in us)

    def to_pandas(self) -> Tuple[pd.DataFrame, pd.DataFrame]:
        """Vertex frame ``(id, label)`` + edge frame ``(src, dst)``, sorted."""
        vdf = pd.DataFrame(
            sorted((v, self.labels[v]) for v in self.adj), columns=["id", "label"]
        )
        edf = pd.DataFrame(sorted(self.edges()), columns=["src", "dst"])
        return vdf, edf
