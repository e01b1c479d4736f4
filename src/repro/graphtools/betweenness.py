"""Betweenness centrality via Brandes' algorithm.

Section II.c: "the Betweenness of a class/node counts the number of the
shortest paths from all nodes to all others that pass through that node."
Brandes (2001) computes exact betweenness for all nodes in
``O(|V| * |E|)`` on unweighted graphs by accumulating pair dependencies
during one BFS per source.

Implementation notes:

* Nodes are relabelled to dense integers and adjacency is flattened to
  index lists before the per-source loops -- on the class graphs this
  library produces (IRI nodes), avoiding per-visit hashing makes the full
  catalogue evaluation several times faster (experiment E10).
* :func:`accumulate_dependencies` is a numpy kernel that runs a block of
  sources level by level, yet performs every float operation of the
  one-source-at-a-time Brandes loop in that loop's order, so its scores
  are bit-identical to it (``tests/graphtools/test_brandes_kernel.py``
  keeps the loop as the reference).
* Adjacency index lists are *sorted* and source order follows the node
  list, so the floating-point accumulation order is a pure function of the
  graph content (given a node insertion order).  Two graphs with the same
  nodes in the same order and the same neighbour sets therefore get the
  same floats, which lets the measure layer reuse a parent version's
  scores when its class graph is unchanged.
* Scores are produced in two stages -- :func:`raw_betweenness` (pair-counted
  once, unnormalized) then :func:`normalize_betweenness` -- so raw scores
  (the form the replica warm handoff ships) normalize with bit-identical
  arithmetic wherever they are installed.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as np

from repro.graphtools.adjacency import UndirectedGraph

Node = Hashable

#: Sources whose BFS levels advance together.  A block holds ``16 * n``
#: path counts, dependencies and visited flags plus its DAG edges (a
#: 0.95 MB tracemalloc peak on a 487-node class graph); larger blocks save
#: little time and add peak memory.
BLOCK_SOURCES = 16


def dense_adjacency(graph: UndirectedGraph) -> Tuple[List[Node], List[List[int]]]:
    """The graph flattened to ``(nodes, adjacency)`` with sorted index lists.

    ``nodes`` follows the graph's node insertion order; ``adjacency[i]``
    holds the sorted dense indices of node ``i``'s neighbours.  Sorting makes
    every downstream accumulation order-independent of the underlying
    neighbour-set iteration order.
    """
    nodes: List[Node] = list(graph.nodes())
    index_of = {node: index for index, node in enumerate(nodes)}
    adjacency = [
        sorted(index_of[neighbour] for neighbour in graph.neighbors(node))
        for node in nodes
    ]
    return nodes, adjacency


def _csr(adjacency: List[List[int]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(degree, indptr, indices)``: the adjacency lists flattened, order kept."""
    degree = np.fromiter(map(len, adjacency), dtype=np.intp, count=len(adjacency))
    indptr = np.zeros(len(adjacency) + 1, dtype=np.intp)
    np.cumsum(degree, out=indptr[1:])
    indices = np.fromiter(
        itertools.chain.from_iterable(adjacency), dtype=np.intp, count=int(indptr[-1])
    )
    return degree, indptr, indices


def _block_dependencies(
    degree: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    block: np.ndarray,
    n: int,
) -> np.ndarray:
    """Brandes dependencies of every node for each source of ``block``.

    Returns a ``(len(block), n)`` array whose row ``i`` holds the scalar
    loop's ``delta`` for source ``block[i]``, with the source's own entry
    zeroed (the scalar loop never adds it).  Every source's state lives in
    one flat array at offset ``i * n``, so a key ``i * n + v`` names node
    ``v`` under source ``i`` and one level of every BFS runs at once.
    """
    size = len(block) * n
    offsets = np.arange(0, size, n)
    frontier = offsets + block  # keys of the current level, in BFS order
    nodes = block
    seen = np.zeros(size, dtype=bool)
    seen[frontier] = True
    sigma = np.zeros(size)
    sigma[frontier] = 1.0
    levels = []
    while True:
        # The scalar scan of this level: each frontier key in BFS order,
        # then its neighbours in adjacency order.
        counts = degree[nodes]
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total == 0:
            break
        owner = np.repeat(np.arange(len(frontier)), counts)
        position = np.arange(total) + (indptr[nodes] - ends + counts)[owner]
        pred = frontier[owner]
        succ = (frontier - nodes)[owner] + indices[position]
        # Edges into unvisited nodes are exactly the scan's DAG edges.
        fresh = ~seen[succ]
        pred = pred[fresh]
        succ = succ[fresh]
        m = len(succ)
        if m == 0:
            break
        # bincount adds in input order, so each path count is summed in
        # the scalar loop's order (this matters once counts pass 2**53).
        counted = np.bincount(succ, weights=sigma[pred], minlength=size)
        # The scalar queue appends a node at its first scanned edge.
        scan = np.arange(m)
        first = np.full(size, m, dtype=np.intp)
        np.minimum.at(first, succ, scan)
        rank = first[succ]
        frontier = succ[rank == scan]
        nodes = frontier % n
        seen[frontier] = True
        sigma[frontier] = counted[frontier]
        levels.append((pred, succ, rank))

    # The scalar loop pops nodes deepest first and, within a level, in
    # descending BFS rank; add.at then adds each predecessor's terms in
    # exactly that order.
    delta = np.zeros(size)
    for pred, succ, rank in reversed(levels):
        order = np.argsort(rank)[::-1]
        pred = pred[order]
        succ = succ[order]
        coefficient = (1.0 + delta[succ]) / sigma[succ]
        np.add.at(delta, pred, sigma[pred] * coefficient)
    delta[offsets + block] = 0.0
    return delta.reshape(len(block), n)


def accumulate_dependencies(
    adjacency: List[List[int]],
    sources: Iterable[int],
    centrality: List[float],
) -> None:
    """Accumulate Brandes pair dependencies from ``sources`` into ``centrality``.

    Runs one BFS + dependency backpropagation per source, adding each
    source's contribution to ``centrality`` in place.

    Sources run :data:`BLOCK_SOURCES` at a time, one BFS level of the whole
    block per numpy pass.  Every float equals the one-source-at-a-time
    loop's: path counts and dependencies are summed in that loop's order
    (see :func:`_block_dependencies`), and the per-source rows are added
    into ``centrality`` one at a time, in source order.
    """
    n = len(adjacency)
    sources = np.fromiter(sources, dtype=np.intp)
    if not len(sources):
        return
    degree, indptr, indices = _csr(adjacency)
    sums = np.array(centrality, dtype=float)
    for start in range(0, len(sources), BLOCK_SOURCES):
        block = sources[start : start + BLOCK_SOURCES]
        for row in _block_dependencies(degree, indptr, indices, block, n):
            sums += row
    centrality[:] = sums.tolist()


def raw_betweenness(graph: UndirectedGraph) -> Dict[Node, float]:
    """Unnormalized betweenness with each unordered pair counted once.

    Normalization (:func:`normalize_betweenness`) is one exact division
    away, so the raw map is the form worth storing and shipping.
    """
    nodes, adjacency = dense_adjacency(graph)
    centrality = [0.0] * len(nodes)
    accumulate_dependencies(adjacency, range(len(nodes)), centrality)
    # Each undirected pair was counted twice (once per endpoint as source);
    # multiplying by 0.5 is exact, keeping raw scores bit-stable.
    return {node: centrality[index] * 0.5 for index, node in enumerate(nodes)}


def normalize_betweenness(raw: Dict[Node, float], n: int) -> Dict[Node, float]:
    """Raw scores divided by ``(n-1)(n-2)/2`` (networkx's undirected convention).

    ``n`` is the *total* node count of the graph the scores belong to;
    graphs with fewer than three nodes get all-zero scores.
    """
    if n <= 2:
        return {node: 0.0 for node in raw}
    denominator = (n - 1) * (n - 2) / 2.0
    return {node: value / denominator for node, value in raw.items()}


def betweenness_centrality(
    graph: UndirectedGraph, normalized: bool = True
) -> Dict[Node, float]:
    """Exact betweenness centrality of every node.

    With ``normalized=True`` scores are divided by ``(n-1)(n-2)/2`` (the
    number of node pairs excluding the node itself), matching networkx's
    convention for undirected graphs; graphs with fewer than three nodes get
    all-zero scores.
    """
    raw = raw_betweenness(graph)
    if not normalized:
        return raw
    return normalize_betweenness(raw, len(graph))
