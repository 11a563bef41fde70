"""Graph substrate: CSR topology, synthetic datasets, and statistics."""

from .csr import CSRGraph, edges_to_csr, induced_subgraph
from .datasets import (
    PROFILES,
    Dataset,
    DatasetProfile,
    make_dataset,
    table1_rows,
    training_view,
)
from .features import (
    gaussian_class_features,
    multi_label_from_blocks,
    single_label_from_blocks,
    smooth_features,
    svd_compressed_features,
)
from .partition import bfs_partition, greedy_edge_partition, random_partition
from .generators import (
    DCSBMParams,
    dcsbm_graph,
    ensure_min_degree,
    grid_graph,
    power_law_weights,
    ring_of_cliques,
)
from .stats import (
    connected_components,
    connectivity_summary,
    degree_assortativity,
    degree_ks_distance,
    global_clustering_coefficient,
    largest_component_fraction,
)

__all__ = [
    "CSRGraph",
    "edges_to_csr",
    "induced_subgraph",
    "Dataset",
    "DatasetProfile",
    "PROFILES",
    "make_dataset",
    "table1_rows",
    "training_view",
    "gaussian_class_features",
    "svd_compressed_features",
    "smooth_features",
    "single_label_from_blocks",
    "multi_label_from_blocks",
    "DCSBMParams",
    "dcsbm_graph",
    "ensure_min_degree",
    "grid_graph",
    "power_law_weights",
    "ring_of_cliques",
    "random_partition",
    "bfs_partition",
    "greedy_edge_partition",
    "degree_ks_distance",
    "connected_components",
    "largest_component_fraction",
    "global_clustering_coefficient",
    "degree_assortativity",
    "connectivity_summary",
]
