"""Breadth-first traversal utilities: distances, components, path lengths."""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Set

from repro.graphtools.adjacency import UndirectedGraph

Node = Hashable


def bfs_distances(
    graph: UndirectedGraph, source: Node, cutoff: int | None = None
) -> Dict[Node, int]:
    """Hop distances from ``source`` to every reachable node (including itself).

    With ``cutoff``, only nodes at most ``cutoff`` hops away are visited.

    >>> g = UndirectedGraph([("a", "b"), ("b", "c")])
    >>> bfs_distances(g, "a")["c"]
    2
    >>> sorted(bfs_distances(g, "a", cutoff=1))
    ['a', 'b']
    """
    if source not in graph:
        raise KeyError(f"source node not in graph: {source!r}")
    distances: Dict[Node, int] = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if cutoff is not None and depth >= cutoff:
            break  # the frontier is in depth order: nothing nearer is left
        for neighbour in graph.neighbors(node):
            if neighbour not in distances:
                distances[neighbour] = depth + 1
                frontier.append(neighbour)
    return distances


def connected_components(graph: UndirectedGraph) -> List[Set[Node]]:
    """The connected components, largest first (ties broken arbitrarily)."""
    remaining: Set[Node] = set(graph.nodes())
    components: List[Set[Node]] = []
    while remaining:
        start = next(iter(remaining))
        component = set(bfs_distances(graph, start))
        components.append(component)
        remaining -= component
    components.sort(key=len, reverse=True)
    return components


def shortest_path_lengths(graph: UndirectedGraph) -> Dict[Node, Dict[Node, int]]:
    """All-pairs hop distances (per-source BFS); unreachable pairs are absent."""
    return {node: bfs_distances(graph, node) for node in graph.nodes()}
