"""Graph substrate: representations, builders, generators, datasets, stats."""

from .adjacency import (
    AdjacencyListGraph,
    AdjacencyMatrixGraph,
    EdgeListGraph,
    GRAPH_MODELS,
    build_model,
)
from .classic import (
    bellman_ford,
    betweenness_centrality,
    bfs_distances,
    boman_coloring,
    delta_stepping,
    pagerank,
)
from .builder import build_directed, build_undirected, edges_to_array, from_networkx
from .csr import CSRGraph
from .datasets import DATASETS, DatasetSpec, dataset_names, load_dataset, suite
from .io import load_npz, read_edge_list, save_npz, write_edge_list
from .set_graph import (
    MaterializationCache,
    SetGraph,
    build_oriented_set_graph,
    build_set_graph,
)
from .stats import GraphSummary, summarize, total_triangles, triangle_counts
from .transforms import (
    induced_subgraph,
    orient_by_rank,
    oriented_arcs,
    permute,
    rank_split,
)
from . import generators

__all__ = [
    "CSRGraph",
    "SetGraph",
    "MaterializationCache",
    "build_set_graph",
    "build_oriented_set_graph",
    "build_undirected",
    "build_directed",
    "edges_to_array",
    "from_networkx",
    "read_edge_list",
    "write_edge_list",
    "save_npz",
    "load_npz",
    "generators",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "dataset_names",
    "suite",
    "GraphSummary",
    "summarize",
    "total_triangles",
    "triangle_counts",
    "orient_by_rank",
    "oriented_arcs",
    "permute",
    "induced_subgraph",
    "rank_split",
    "AdjacencyListGraph",
    "AdjacencyMatrixGraph",
    "EdgeListGraph",
    "GRAPH_MODELS",
    "build_model",
    "bfs_distances",
    "bellman_ford",
    "delta_stepping",
    "pagerank",
    "betweenness_centrality",
    "boman_coloring",
]
