"""BCindex — the offline butterfly-core index (Section 6.3).

Two components, per the paper:

* ``coreness[v]`` — coreness of ``v`` within its own label group
  (homogeneous subgraph), from core decomposition;
* ``chi[{A,B}][v]`` — butterfly degree of ``v`` in the bipartite graph
  between label groups A and B. Label pairs are indexed lazily and
  cached: real deployments have up to ~400 labels (Baidu), so indexing
  all O(labels²) pairs eagerly would be wasted work.

``build_bcindex_spark`` computes both components with the distributed
tier (per-label coreness via one H-index fixpoint over the homogeneous
edges, butterflies via wedge self-joins); ``build_bcindex_local`` is the
driver-side equivalent used by the per-query experiment loops.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional

from ..graphlib.butterfly import butterfly_degrees as spark_butterfly_degrees
from ..graphlib.labeled import SparkLabeledGraph
from ..local.butterfly import butterfly_degrees
from ..local.graph import LocalGraph
from ..local.kcore import label_coreness
from .model import cross_bipartite


@dataclass
class BCIndex:
    """Vertex coreness (within label group) + per-label-pair chi."""

    graph: LocalGraph
    coreness: Mapping[int, int]
    chi: Dict[FrozenSet, Dict[int, int]] = field(default_factory=dict)
    _spark: Optional[SparkLabeledGraph] = None

    @property
    def delta_max(self) -> int:
        return max(self.coreness.values(), default=0)

    def chi_for_pair(self, lab_a: object, lab_b: object) -> Dict[int, int]:
        """Butterfly degrees for one label pair, computed once and cached."""
        key = frozenset((lab_a, lab_b))
        if key not in self.chi:
            if self._spark is not None:
                ce = self._spark.cross_edges(lab_a, lab_b)
                self.chi[key] = {
                    int(r["id"]): int(r["chi"])
                    for r in spark_butterfly_degrees(ce).collect()
                }
            else:
                g = self.graph
                bp = cross_bipartite(
                    g, g.vertices_with_label(lab_a), g.vertices_with_label(lab_b)
                )
                self.chi[key] = butterfly_degrees(bp)
        return self.chi[key]


def build_bcindex_local(g: LocalGraph) -> BCIndex:
    """Per-label-group coreness: the graph's memoised decomposition."""
    return BCIndex(g, label_coreness(g))


def build_bcindex_spark(sg: SparkLabeledGraph) -> BCIndex:
    """Distributed BCindex: coreness per label group from the graph's
    memoised ``core_forest()`` (the one collect of ``label_coreness()``);
    chi per label pair lazily via distributed wedge joins.

    The collected index (a dict per vertex) is what query processing
    consults in O(1), per the paper.
    """
    idx = BCIndex(sg.to_local(), sg.core_forest().coreness)
    idx._spark = sg
    return idx
