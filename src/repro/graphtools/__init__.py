"""Graph algorithms implemented from scratch (``docs/architecture.md`` §2).

The structural evolution measures of Section II.c need betweenness and
bridging centrality over the class-level graph of a knowledge-base version.
These are implemented here on a plain adjacency representation
(:class:`UndirectedGraph`), with numpy as the only dependency (the Brandes
kernel); the test suite cross-checks them against networkx on random
graphs.
"""

from repro.graphtools.adjacency import UndirectedGraph
from repro.graphtools.betweenness import (
    betweenness_centrality,
    normalize_betweenness,
    raw_betweenness,
)
from repro.graphtools.bridging import bridging_centrality, bridging_coefficient
from repro.graphtools.spread import spread_interest
from repro.graphtools.traversal import (
    bfs_distances,
    connected_components,
    shortest_path_lengths,
)

__all__ = [
    "UndirectedGraph",
    "betweenness_centrality",
    "raw_betweenness",
    "normalize_betweenness",
    "bridging_centrality",
    "bridging_coefficient",
    "spread_interest",
    "bfs_distances",
    "connected_components",
    "shortest_path_lengths",
]
