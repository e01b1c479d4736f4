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
from typing import Dict, Hashable, Iterable, Iterator, List, Tuple

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


def _rows(
    degree: np.ndarray, indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray, n: int
) -> Iterator[np.ndarray]:
    """The dependency row of each of ``sources``, in order, one block at a time."""
    for start in range(0, len(sources), BLOCK_SOURCES):
        block = sources[start : start + BLOCK_SOURCES]
        yield from _block_dependencies(degree, indptr, indices, block, n)


def _leaf_dependencies(
    degree: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    leaves: np.ndarray,
    parents: np.ndarray,
    parent_rows: np.ndarray,
    slot: np.ndarray,
) -> np.ndarray:
    """``delta_s[p]`` for each leaf ``s`` hanging off ``p``, from ``p``'s row
    ``parent_rows[slot[p]]``.

    The scalar loop pops ``p``'s other neighbours ``w`` in descending index
    order (their BFS order at depth 2 from ``s``, reversed) and adds
    ``1.0 * ((1.0 + delta_p[w]) / 1.0)`` for each, starting from 0.0; both
    path counts are 1.0, so each term is exactly ``1.0 + delta_p[w]``.
    bincount sums each leaf's terms in that input order.  Leaves run in
    chunks of at most ``BLOCK_SOURCES * n`` terms, the memory of one BFS
    block.
    """
    out = np.empty(len(leaves))
    if not len(leaves):
        return out
    budget = BLOCK_SOURCES * len(degree)
    per_chunk = max(1, budget // int(degree[parents].max()))
    for start in range(0, len(leaves), per_chunk):
        leaf = leaves[start : start + per_chunk]
        parent = parents[start : start + per_chunk]
        counts = degree[parent]
        owner = np.repeat(np.arange(len(leaf)), counts)
        ends = np.cumsum(counts)
        # Each parent's adjacency run, read from its end backwards.
        position = (indptr[parent] + ends - 1)[owner] - np.arange(int(ends[-1]))
        w = indices[position]
        keep = w != leaf[owner]
        owner = owner[keep]
        terms = 1.0 + parent_rows[slot[parent][owner], w[keep]]
        out[start : start + len(leaf)] = np.bincount(
            owner, weights=terms, minlength=len(leaf)
        )
    return out


def accumulate_dependencies(
    adjacency: List[List[int]],
    sources: Iterable[int],
    centrality: List[float],
) -> None:
    """Accumulate Brandes pair dependencies from ``sources`` into ``centrality``.

    Adds each source's dependency row to ``centrality`` in place, in
    source order, with the floats of the one-source-at-a-time loop.

    Most sources run a BFS, :data:`BLOCK_SOURCES` at a time, one BFS level
    of the whole block per numpy pass (see :func:`_block_dependencies`).
    A *leaf* source -- degree 1, whose neighbour ``p`` has degree >= 2 and
    is a source of this same call -- runs none: BFS from the leaf ``s``
    visits ``s``, then ``p``, then ``p``'s own BFS levels without ``s``, in
    the same order, so every path count and every dependency other than
    ``delta_s[p]`` equals ``p``'s (and ``delta_p[s]`` is 0.0).  Its row is
    therefore ``p``'s row with ``delta_s[p]`` at ``p``, where ``p``'s row
    holds 0.0; ``delta_s[p]`` is summed from ``p``'s row in the loop's
    order (:func:`_leaf_dependencies`).  Only the rows of such parents
    are kept.  Isolated nodes and both ends of a lone edge run a BFS.
    """
    n = len(adjacency)
    sources = np.fromiter(sources, dtype=np.intp)
    if not len(sources):
        return
    degree, indptr, indices = _csr(adjacency)
    is_source = np.zeros(n, dtype=bool)
    is_source[sources] = True
    folded = degree[sources] == 1
    # A degree-1 node's only neighbour sits at indices[indptr[node]].
    neighbour = indices[indptr[sources[folded]]]
    hangs = (degree[neighbour] >= 2) & is_source[neighbour]
    folded[folded] = hangs
    leaves = sources[folded]
    leaf_parents = neighbour[hangs]
    # Marked, not np.unique: that would import numpy.ma (0.5 MB) on first use.
    is_parent = np.zeros(n, dtype=bool)
    is_parent[leaf_parents] = True
    parents = np.flatnonzero(is_parent)
    slot = np.full(n, -1, dtype=np.intp)
    slot[parents] = np.arange(len(parents))
    parent_rows = np.empty((len(parents), n))
    for index, row in enumerate(_rows(degree, indptr, indices, parents, n)):
        parent_rows[index] = row
    leaf_delta = _leaf_dependencies(
        degree, indptr, indices, leaves, leaf_parents, parent_rows, slot
    ).tolist()
    plain = sources[~folded & (slot[sources] < 0)]
    plain_rows = _rows(degree, indptr, indices, plain, n)

    sums = np.array(centrality, dtype=float)
    leaf_parent_list = leaf_parents.tolist()
    leaf_index = iter(range(len(leaves)))
    slot_list = slot.tolist()
    for source, is_leaf in zip(sources.tolist(), folded.tolist()):
        if is_leaf:
            leaf = next(leaf_index)
            parent = leaf_parent_list[leaf]
            kept = sums[parent]
            sums += parent_rows[slot_list[parent]]
            sums[parent] = kept + leaf_delta[leaf]
        elif slot_list[source] >= 0:
            sums += parent_rows[slot_list[source]]
        else:
            sums += next(plain_rows)
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
