"""Per-label core forest: every k-core component of every label group.

Within one label group the connected components of the k-cores nest as
k grows, so for all k together they form one tree per connected
component of the group (the CL-tree of Fang et al., PVLDB 2016; the
ShellStruct of Barbieri et al., DMKD 2015). :class:`CoreForest` builds
those trees for every label group at once by one union-find pass over
the vertices in decreasing coreness, and numbers the vertices in a DFS
of the trees, so that each tree node is a slice of one array. The
component of ``q`` in the k-core of its label group is then a walk up
from ``q`` and a slice, with no BFS.

:class:`UnionFind` is the project's one disjoint-set structure; the
Def.-7 label-graph connectivity check uses it too.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import groupby
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple


class UnionFind:
    """Disjoint sets over hashable items (path halving, union by size).

    ``sets`` is the number of disjoint sets.
    """

    __slots__ = ("parent", "size", "sets")

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self.parent: Dict[Hashable, Hashable] = {}
        self.size: Dict[Hashable, int] = {}
        self.sets = 0
        for x in items:
            self.add(x)

    def add(self, x: Hashable) -> None:
        """Make ``x`` a singleton set (no-op if it is already an item)."""
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1
            self.sets += 1

    def find(self, x: Hashable) -> Hashable:
        """The root of ``x``'s set."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: Hashable, y: Hashable) -> Hashable:
        """Merge the sets of ``x`` and ``y``; returns the merged set's root."""
        a, b = self.find(x), self.find(y)
        if a == b:
            return a
        if self.size[a] < self.size[b]:
            a, b = b, a
        self.parent[b] = a
        self.size[a] += self.size.pop(b)
        self.sets -= 1
        return a


class CoreForest:
    """The per-label core forest of a graph.

    Built from each vertex's coreness within its own label group
    (``coreness``), the vertex ``labels``, and the graph's homogeneous
    edges as ``(u, v, w)`` with ``w = min(coreness[u], coreness[v])``,
    in non-increasing ``w``. The edges are consumed once and not kept,
    so they may be streamed.

    Levels L are walked from high to low: the vertices with coreness L
    are activated and the edges with ``w = L`` are unioned. Every set
    that then holds a level-L vertex becomes a node at level L whose
    children are the nodes merged into it. After level L the sets are
    exactly the components of the L-cores of the label groups.

    Node ``x`` has ``level[x]``, ``parent[x]`` (-1 for a root) and its
    subtree's vertices as ``order[lo[x]:hi[x]]``; ``leaf[v]`` is the
    node at which ``v`` was activated. Children are numbered before
    their parents.
    """

    def __init__(
        self,
        coreness: Mapping[int, int],
        labels: Mapping[int, object],
        edges: Iterable[Tuple[int, int, int]],
    ) -> None:
        self.coreness = coreness
        self.labels = labels
        self.level: List[int] = []
        self.parent: List[int] = []
        self.leaf: Dict[int, int] = {}
        own: List[List[int]] = []  # the vertices activated at each node
        by_level: Dict[int, List[int]] = defaultdict(list)
        for v, c in coreness.items():
            by_level[c].append(v)
        uf = UnionFind()
        top: Dict[int, int] = {}  # set root -> the set's latest node
        groups = groupby(edges, key=itemgetter(2))
        pending = next(groups, None)
        for lev in sorted(by_level, reverse=True):
            # set root -> the nodes merged into it at this level
            kids: Dict[int, List[int]] = {}
            for v in by_level[lev]:
                uf.add(v)
                kids[v] = []
            if pending is not None and pending[0] == lev:
                for u, v, _ in pending[1]:
                    a, b = uf.find(u), uf.find(v)
                    if a == b:
                        continue
                    for r in (a, b):
                        if r not in kids:
                            kids[r] = [top.pop(r)]
                    r = uf.union(a, b)
                    kids[r].extend(kids.pop(b if r == a else a))
                pending = next(groups, None)
            members: Dict[int, List[int]] = defaultdict(list)
            for v in by_level[lev]:
                members[uf.find(v)].append(v)
            for r, children in kids.items():
                x = len(self.level)
                self.level.append(lev)
                self.parent.append(-1)
                own.append(members[r])
                for c in children:
                    self.parent[c] = x
                for v in members[r]:
                    self.leaf[v] = x
                top[r] = x
        if pending is not None:
            raise ValueError(
                "edges must come in non-increasing w, each w the coreness of an endpoint"
            )
        self._number(own)

    def _number(self, own: List[List[int]]) -> None:
        """DFS positions: a node's own vertices, then its children's
        subtrees, one after another. Parents are numbered after their
        children, so one pass up sums the subtree sizes and one pass
        down hands out the slices."""
        n = len(self.level)
        size = [len(o) for o in own]
        for x in range(n):
            if self.parent[x] >= 0:
                size[self.parent[x]] += size[x]
        self.lo = [0] * n
        self.hi = [0] * n
        self.order: List[int] = [0] * len(self.leaf)
        free = [0] * n  # next unassigned position inside each node
        roots_end = 0
        for x in reversed(range(n)):
            p = self.parent[x]
            if p < 0:
                lo, roots_end = roots_end, roots_end + size[x]
            else:
                lo = free[p]
                free[p] += size[x]
            self.lo[x], self.hi[x] = lo, lo + size[x]
            self.order[lo : lo + len(own[x])] = own[x]
            free[x] = lo + len(own[x])

    def component(self, q: int, k: int) -> List[int]:
        """The connected component of ``q`` in the k-core of its label
        group: the slice of ``q``'s ancestor with the smallest level
        ``>= k``. Empty if ``q``'s coreness is below ``k``."""
        x = self.leaf[q]
        if self.level[x] < k:
            return []
        parent, level = self.parent, self.level
        while parent[x] >= 0 and level[parent[x]] >= k:
            x = parent[x]
        return self.order[self.lo[x] : self.hi[x]]
