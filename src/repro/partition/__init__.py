"""Multilevel graph partitioning (paper §4.2)."""

from .contract import contract
from .fm_refine import fm_bisection_refine, kway_fm_refine, kway_greedy_refine
from .graph import Graph
from .initial import greedy_graph_growing
from .matching import heavy_edge_matching
from .multilevel import multilevel_bisect, multilevel_kway
from .parallel_model import partition_time
from .quality import edgecut, imbalance, loads
from .repartition import repartition

__all__ = [
    "Graph",
    "contract",
    "edgecut",
    "fm_bisection_refine",
    "greedy_graph_growing",
    "heavy_edge_matching",
    "imbalance",
    "kway_fm_refine",
    "kway_greedy_refine",
    "loads",
    "multilevel_bisect",
    "multilevel_kway",
    "partition_time",
    "repartition",
]
