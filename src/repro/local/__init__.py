"""Driver-local graph tier: adjacency-dict graphs and exact algorithms.

Used for the per-query refinement phase (candidate graphs are community
sized) and as independent references for the distributed tier.
"""
from .graph import LocalGraph, canon  # noqa: F401
from .bfs import bfs_distances, diameter, query_distances  # noqa: F401
from .kcore import coreness, kcore_vertices, label_coreness, peel_to_kcore  # noqa: F401
from .butterfly import Bipartite, butterfly_degrees  # noqa: F401
from .truss import ktruss_subgraph, max_truss_containing, trussness  # noqa: F401
