"""Multilevel graph partitioning (paper §4.2) and baselines."""

from .baselines import block_partition, random_partition, rcb_partition
from .contract import contract
from .fm_refine import fm_bisection_refine, kway_fm_refine, kway_greedy_refine
from .graph import Graph
from .initial import greedy_graph_growing
from .matching import heavy_edge_matching
from .multilevel import multilevel_bisect, multilevel_kway
from .parallel_model import partition_time
from .quality import comm_volume, edgecut, imbalance, loads
from .repartition import repartition

__all__ = [
    "Graph",
    "block_partition",
    "comm_volume",
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
    "random_partition",
    "rcb_partition",
    "repartition",
]
