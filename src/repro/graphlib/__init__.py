"""Distributed graph tier: labeled graphs and bulk algorithms on Spark.

DataFrame/Catalyst implementations of the primitives the BCC search
needs at whole-graph scale: coreness decomposition (H-index fixpoint,
memoised per label group on each ``SparkLabeledGraph``, with the
driver-side per-label core forest built from it), bipartite butterfly
counting, and dataset statistics.
"""
from .labeled import SparkLabeledGraph  # noqa: F401
from .kcore import coreness, max_coreness  # noqa: F401
from .butterfly import butterfly_degrees  # noqa: F401
from .stats import GraphStats, graph_stats  # noqa: F401
