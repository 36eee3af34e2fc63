"""Driver-local butterfly counting on a bipartite (cross-label) graph.

Implements Algorithm 3 of the paper: per-vertex butterfly degrees via
2-hop path hashing, ``chi(v) = sum_w C(P[v][w], 2)`` over the same-side
2-hop neighbours ``w``. Used inside the refinement loop and as the
reference for the distributed version in ``repro.graphlib.butterfly``.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Set, Tuple


class Bipartite:
    """Mutable bipartite graph between a left and a right vertex set.

    ``adj`` holds cross neighbours only; sides are disjoint vertex sets.
    """

    def __init__(self, left: Iterable[int], right: Iterable[int], edges: Iterable[Tuple[int, int]]):
        self.left: Set[int] = set(left)
        self.right: Set[int] = set(right)
        assert not (self.left & self.right), "bipartite sides must be disjoint"
        self.adj: Dict[int, Set[int]] = {v: set() for v in self.left | self.right}
        for u, v in edges:
            if u in self.right and v in self.left:
                u, v = v, u
            assert u in self.left and v in self.right, f"edge ({u},{v}) not cross-side"
            self.adj[u].add(v)
            self.adj[v].add(u)

    def remove_vertex(self, v: int) -> None:
        for u in self.adj.pop(v, ()):  # pragma: no branch
            self.adj[u].discard(v)
        self.left.discard(v)
        self.right.discard(v)

    def degree(self, v: int) -> int:
        return len(self.adj.get(v, ()))


def butterfly_degrees(b: Bipartite) -> Dict[int, int]:
    """Algorithm 3: ``chi(v)`` for every vertex of the bipartite graph."""
    chi: Dict[int, int] = {v: 0 for v in b.adj}
    for v in b.adj:
        paths: Dict[int, int] = defaultdict(int)
        for u in b.adj[v]:
            for w in b.adj[u]:
                if w != v:
                    paths[w] += 1
        chi[v] = sum(p * (p - 1) // 2 for p in paths.values())
    return chi

