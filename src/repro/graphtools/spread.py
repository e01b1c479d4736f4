"""Interest spreading: decayed BFS activation from focus nodes.

Used by the synthetic user generator and the relatedness scorer: interest in
a class radiates to nearby classes with per-hop decay.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence

from repro.graphtools.adjacency import UndirectedGraph
from repro.graphtools.traversal import bfs_distances

Node = Hashable


def spread_interest(
    graph: UndirectedGraph,
    foci: Sequence[Node],
    decay: float,
    depth: int,
) -> Dict[Node, float]:
    """Interest weights: ``max over foci of decay ** distance`` within ``depth``.

    Foci absent from the graph still receive their own full weight (1.0) --
    a user can care about a class that vanished from the schema.  Each
    focus's BFS stops at ``depth`` hops, so its cost follows the size of
    that neighbourhood, not of the graph.
    """
    weights: Dict[Node, float] = {}
    for focus in foci:
        if focus not in graph:
            weights[focus] = max(weights.get(focus, 0.0), 1.0)
            continue
        for node, distance in bfs_distances(graph, focus, cutoff=depth).items():
            if distance > depth:
                continue
            weight = decay**distance
            if weight > weights.get(node, 0.0):
                weights[node] = weight
    return weights
