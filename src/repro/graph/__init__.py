"""In-memory directed-graph substrate (CSR storage + classic algorithms)."""

from repro.graph.digraph import Digraph, GraphBuilder
from repro.graph.algorithms import (
    bfs_distances,
    hits,
    in_neighborhood,
    out_neighborhood,
    pagerank,
    strongly_connected_components,
)

__all__ = [
    "Digraph",
    "GraphBuilder",
    "bfs_distances",
    "hits",
    "in_neighborhood",
    "out_neighborhood",
    "pagerank",
    "strongly_connected_components",
]
