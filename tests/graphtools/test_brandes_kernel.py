"""Differential tests: the numpy Brandes kernel equals the scalar loop, float for float.

:func:`reference_accumulate_dependencies` below is Brandes' loop as it was
written before the kernel: one BFS and one dependency pass per source, in
pure Python.  :func:`repro.graphtools.betweenness.accumulate_dependencies`
runs :data:`BLOCK_SOURCES` sources per numpy pass and must reproduce every
float bit (compared through ``float.hex``), including where path counts
pass 2**53 and the order of additions decides the rounding.
"""

import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graphtools import betweenness
from repro.graphtools.adjacency import UndirectedGraph
from repro.graphtools.betweenness import (
    BLOCK_SOURCES,
    accumulate_dependencies,
    dense_adjacency,
    raw_betweenness,
)
from repro.measures.structural import class_graph
from repro.synthetic.config import EvolutionConfig, SchemaConfig, UserConfig, WorldConfig
from repro.synthetic.world import generate_world

# -- the scalar reference loop -----------------------------------------------------


def reference_accumulate_dependencies(adjacency, sources, centrality):
    n = len(adjacency)
    for source in sources:
        stack = []
        predecessors = [[] for _ in range(n)]
        sigma = [0.0] * n
        sigma[source] = 1.0
        distance = [-1] * n
        distance[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            stack.append(node)
            node_distance = distance[node]
            node_sigma = sigma[node]
            for neighbour in adjacency[node]:
                if distance[neighbour] < 0:
                    distance[neighbour] = node_distance + 1
                    queue.append(neighbour)
                if distance[neighbour] == node_distance + 1:
                    sigma[neighbour] += node_sigma
                    predecessors[neighbour].append(node)

        delta = [0.0] * n
        while stack:
            node = stack.pop()
            coefficient = (1.0 + delta[node]) / sigma[node]
            for pred in predecessors[node]:
                delta[pred] += sigma[pred] * coefficient
            if node != source:
                centrality[node] += delta[node]


def assert_kernel_matches(adjacency, sources, start=None):
    sources = list(sources)
    start = [0.0] * len(adjacency) if start is None else list(start)
    expected, actual = list(start), list(start)
    reference_accumulate_dependencies(adjacency, sources, expected)
    accumulate_dependencies(adjacency, iter(sources), actual)
    assert [x.hex() for x in actual] == [x.hex() for x in expected]


def _adjacency(n, edges):
    neighbours = [set() for _ in range(n)]
    for a, b in edges:
        if a != b:
            neighbours[a].add(b)
            neighbours[b].add(a)
    return [sorted(s) for s in neighbours]


def shortest_path_count(adjacency, source, target):
    """Number of shortest ``source``-``target`` paths, in exact integers."""
    distance, count = {source: 0}, {source: 1}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in adjacency[node]:
            if neighbour not in distance:
                distance[neighbour] = distance[node] + 1
                count[neighbour] = 0
                queue.append(neighbour)
            if distance[neighbour] == distance[node] + 1:
                count[neighbour] += count[node]
    return count.get(target, 0)


# -- graphs ------------------------------------------------------------------------


@st.composite
def graphs(draw, max_nodes=40):
    n = draw(st.integers(0, max_nodes))
    if n < 2:
        return _adjacency(n, [])
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return _adjacency(n, draw(st.lists(pairs, max_size=3 * n)))


@st.composite
def source_orders(draw, n):
    """A subset of ``range(n)``, ascending or shuffled."""
    subset = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))) if n else []
    if draw(st.booleans()):
        subset = draw(st.permutations(subset))
    return subset


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_random_graphs_and_source_subsets_match_the_reference(data):
    adjacency = data.draw(graphs())
    assert_kernel_matches(adjacency, data.draw(source_orders(len(adjacency))))


@settings(max_examples=60, deadline=None)
@given(adjacency=graphs(max_nodes=25), seed=st.integers(0, 2**32 - 1))
def test_accumulation_onto_nonzero_totals_matches_the_reference(adjacency, seed):
    rng = random.Random(seed)
    start = [rng.uniform(0.0, 50.0) for _ in adjacency]
    assert_kernel_matches(adjacency, range(len(adjacency)), start)


@pytest.mark.parametrize(
    "n, edges",
    [
        (0, []),
        (1, []),
        (2, []),
        (2, [(0, 1)]),
        (5, [(0, 1), (1, 2), (3, 4)]),  # two components
        (6, [(0, 1), (1, 2), (2, 0)]),  # a triangle and three isolated nodes
        (6, [(0, i) for i in range(1, 6)]),  # star
    ],
)
def test_degenerate_graphs_match_the_reference(n, edges):
    adjacency = _adjacency(n, edges)
    assert_kernel_matches(adjacency, range(n))
    assert_kernel_matches(adjacency, reversed(range(n)))


@pytest.mark.parametrize(
    "count",
    [1, BLOCK_SOURCES - 1, BLOCK_SOURCES, BLOCK_SOURCES + 1, 2 * BLOCK_SOURCES + 3],
)
def test_source_counts_around_the_block_size(count):
    rng = random.Random(count)
    n = 2 * BLOCK_SOURCES + 5
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
    adjacency = _adjacency(n, edges)
    sources = rng.sample(range(n), count)
    assert_kernel_matches(adjacency, sources)
    assert_kernel_matches(adjacency, sorted(sources))


def test_repeated_sources_match_the_reference():
    adjacency = _adjacency(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 3), (3, 5)])
    assert_kernel_matches(adjacency, [1, 1, 3] * BLOCK_SOURCES)


def _grid(rows, cols):
    cells = rows * cols
    edges = [(i, i + 1) for i in range(cells) if (i + 1) % cols]
    edges += [(i, i + cols) for i in range(cells - cols)]
    return _adjacency(cells, edges)


@pytest.mark.parametrize("rows, cols", [(3, 7), (8, 8), (4, 30)])
def test_grids_match_the_reference(rows, cols):
    assert_kernel_matches(_grid(rows, cols), range(rows * cols))


# -- leaf sources, folded onto their neighbour's row ------------------------------------


@st.composite
def leafy_graphs(draw):
    """Graphs where many nodes are leaves: stars, caterpillars, hub trees or
    a random cyclic core with leaves hung on it.

    Each may also get a few extra edges, lone edges (2-node components),
    pendant paths of two (a leaf on a former leaf) and isolated nodes, and
    node ids are shuffled so a leaf's index may lie above or below its
    neighbour's.
    """
    edges = []
    count = [0]

    def node():
        count[0] += 1
        return count[0] - 1

    shape = draw(st.sampled_from(["stars", "caterpillar", "tree", "core"]))
    if shape == "core":
        # A cyclic core, so path counts and dependencies are not integers,
        # with leaves hung on its nodes.
        core = [node() for _ in range(draw(st.integers(3, 25)))]
        pairs = st.tuples(st.sampled_from(core), st.sampled_from(core))
        edges += draw(st.lists(pairs, min_size=len(core), max_size=3 * len(core)))
        for _ in range(draw(st.integers(1, 30))):
            edges.append((draw(st.sampled_from(core)), node()))
    elif shape == "stars":
        hubs = [node() for _ in range(draw(st.integers(1, 4)))]
        for hub in hubs:
            edges += [(hub, node()) for _ in range(draw(st.integers(2, 12)))]
        edges += [(a, b) for a, b in zip(hubs, hubs[1:]) if draw(st.booleans())]
    elif shape == "caterpillar":
        spine = [node() for _ in range(draw(st.integers(2, 10)))]
        edges += list(zip(spine, spine[1:]))
        for vertebra in spine:
            edges += [(vertebra, node()) for _ in range(draw(st.integers(0, 4)))]
    else:
        hubs = draw(st.integers(1, 3))
        root = node()
        for child in range(1, draw(st.integers(3, 40))):
            top = min(child, hubs) if draw(st.booleans()) else child
            edges.append((draw(st.integers(root, top - 1)), node()))
    for _ in range(draw(st.integers(0, 3))):
        edges.append((draw(st.integers(0, count[0] - 1)), draw(st.integers(0, count[0] - 1))))
    for _ in range(draw(st.integers(0, 2))):
        edges.append((node(), node()))
    for _ in range(draw(st.integers(0, 2))):
        anchor, middle, tip = draw(st.integers(0, count[0] - 1)), node(), node()
        edges += [(anchor, middle), (middle, tip)]
    for _ in range(draw(st.integers(0, 2))):
        node()
    relabel = draw(st.permutations(range(count[0])))
    return _adjacency(count[0], [(relabel[a], relabel[b]) for a, b in edges])


def _hanging_leaves(adjacency):
    """``{leaf: neighbour}`` for every degree-1 node whose neighbour has degree >= 2."""
    return {
        node: neighbours[0]
        for node, neighbours in enumerate(adjacency)
        if len(neighbours) == 1 and len(adjacency[neighbours[0]]) >= 2
    }


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_leaf_heavy_graphs_match_the_reference(data):
    adjacency = data.draw(leafy_graphs())
    n = len(adjacency)
    assert_kernel_matches(adjacency, range(n))
    assert_kernel_matches(adjacency, data.draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(adjacency=leafy_graphs(), seed=st.integers(0, 2**32 - 1))
def test_leaf_heavy_graphs_onto_nonzero_totals_match_the_reference(adjacency, seed):
    rng = random.Random(seed)
    start = [rng.uniform(0.0, 50.0) for _ in adjacency]
    assert_kernel_matches(adjacency, range(len(adjacency)), start)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sources_without_a_leafs_neighbour_match_the_reference(data):
    """A leaf whose neighbour is not a source of the call runs its own BFS."""
    adjacency = data.draw(leafy_graphs())
    neighbours = sorted(set(_hanging_leaves(adjacency).values()))
    assume(neighbours)
    left_out = data.draw(st.sets(st.sampled_from(neighbours), min_size=1))
    sources = [node for node in range(len(adjacency)) if node not in left_out]
    assert_kernel_matches(adjacency, data.draw(st.permutations(sources)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_repeated_leaf_sources_match_the_reference(data):
    adjacency = data.draw(leafy_graphs())
    hanging = _hanging_leaves(adjacency)
    assume(hanging)
    leaves = sorted(hanging)
    repeats = data.draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=12))
    repeats += data.draw(st.lists(st.sampled_from(sorted(set(hanging.values()))), max_size=4))
    sources = list(range(len(adjacency))) + repeats
    assert_kernel_matches(adjacency, data.draw(st.permutations(sources)))


@pytest.mark.parametrize("seed", range(16))
def test_leaves_on_cyclic_cores_match_the_reference(seed):
    """Dense random cores give fractional dependencies, so the order in
    which a leaf's dependency at its neighbour is summed decides its bits.

    Run alone with its neighbour, a leaf's dependency at the neighbour is
    that node's whole total, so a last-bit slip cannot hide in a larger
    sum.
    """
    rng = random.Random(seed)
    core = rng.randint(20, 60)
    edges = [(rng.randrange(core), rng.randrange(core)) for _ in range(3 * core)]
    n = core + rng.randint(core // 2, 2 * core)
    edges += [(rng.randrange(core), leaf) for leaf in range(core, n)]
    relabel = rng.sample(range(n), n)
    adjacency = _adjacency(n, [(relabel[a], relabel[b]) for a, b in edges])
    assert_kernel_matches(adjacency, range(n))
    for leaf, neighbour in _hanging_leaves(adjacency).items():
        assert_kernel_matches(adjacency, [leaf, neighbour])


def _bfs_blocks(monkeypatch):
    """Record every block of sources the kernel runs a BFS for."""
    blocks = []
    block_dependencies = betweenness._block_dependencies

    def spy(degree, indptr, indices, block, n):
        blocks.append(block.tolist())
        return block_dependencies(degree, indptr, indices, block, n)

    monkeypatch.setattr(betweenness, "_block_dependencies", spy)
    return blocks


@pytest.mark.parametrize("leaves", [2, 3, 40])
@pytest.mark.parametrize("hub", ["first", "last"])
def test_a_star_runs_one_bfs_source(leaves, hub, monkeypatch):
    centre = 0 if hub == "first" else leaves
    others = [node for node in range(leaves + 1) if node != centre]
    adjacency = _adjacency(leaves + 1, [(centre, leaf) for leaf in others])
    blocks = _bfs_blocks(monkeypatch)
    assert_kernel_matches(adjacency, range(leaves + 1))
    assert blocks == [[centre]]


def test_without_hanging_leaves_every_source_runs_in_source_order(monkeypatch):
    """A grid, two lone edges and two isolated nodes: no source folds, and
    the BFS blocks are the source list cut into ``BLOCK_SOURCES``."""
    adjacency = _grid(5, 7) + [[36], [35], [38], [37], [], []]
    sources = list(range(len(adjacency)))
    random.Random(7).shuffle(sources)
    blocks = _bfs_blocks(monkeypatch)
    assert_kernel_matches(adjacency, sources)
    assert blocks == [
        sources[start : start + BLOCK_SOURCES]
        for start in range(0, len(sources), BLOCK_SOURCES)
    ]


# -- path counts beyond 2**53 --------------------------------------------------------


def _diamond_chain(widths):
    """Hubs h0..hk, hub i joined to hub i+1 through ``widths[i]`` middle nodes."""
    edges, hub, nxt = [], 0, 1
    for width in widths:
        middles = range(nxt, nxt + width)
        following = nxt + width
        edges += [(hub, m) for m in middles] + [(m, following) for m in middles]
        hub, nxt = following, following + 1
    return _adjacency(nxt, edges), hub


@pytest.mark.parametrize(
    "widths",
    [
        [2] * 60,  # 2**60 paths end to end
        [3] * 40,  # 3**40: odd counts, so sums round
        [2, 3, 5, 7] * 15,  # ~1.5e54 paths
    ],
)
def test_diamond_chains_past_2_to_the_53_match_the_reference(widths):
    adjacency, last_hub = _diamond_chain(widths)
    assert shortest_path_count(adjacency, 0, last_hub) > 2**53
    assert_kernel_matches(adjacency, range(len(adjacency)))


def _layered(seed, layers, width):
    """Random edges between consecutive layers: uneven, huge path counts."""
    rng = random.Random(seed)
    edges = []
    for layer in range(layers - 1):
        for b in range(width):
            below = (layer + 1) * width + b
            parents = rng.sample(range(width), rng.randint(1, width))
            edges += [(layer * width + a, below) for a in parents]
    return _adjacency(layers * width, edges)


@pytest.mark.parametrize("seed", range(6))
def test_layered_graphs_past_2_to_the_53_match_the_reference(seed):
    layers, width = 40, 5
    adjacency = _layered(seed, layers, width)
    last_layer = range((layers - 1) * width, layers * width)
    assert max(shortest_path_count(adjacency, 0, v) for v in last_layer) > 2**53
    assert_kernel_matches(adjacency, range(len(adjacency)))


# -- the class graphs the serving benchmark grows -------------------------------------


def test_bench_world_class_graphs_match_the_reference():
    """The 43 version class graphs of the serving benchmark's world (seed 4242)."""
    config = WorldConfig(
        schema=SchemaConfig(n_classes=120, n_properties=80),
        evolution=EvolutionConfig(n_versions=43, changes_per_version=150),
        users=UserConfig(n_users=1),
    )
    versions = list(generate_world(seed=4242, config=config).kb)
    assert len(versions) == 43
    for version in versions:
        graph = class_graph(version.schema)
        nodes, adjacency = dense_adjacency(graph)
        expected = [0.0] * len(nodes)
        reference_accumulate_dependencies(adjacency, range(len(nodes)), expected)
        raw = raw_betweenness(graph)
        assert [raw[node].hex() for node in nodes] == [
            (value * 0.5).hex() for value in expected
        ]


def test_component_subsets_match_the_reference():
    """Source subsets spanning whole components match the scalar reference."""
    graph = UndirectedGraph(
        [(0, 1), (1, 2), (2, 3), (1, 3), (10, 11), (11, 12), (20, 21)], nodes=[30]
    )
    nodes, adjacency = dense_adjacency(graph)
    for component in ({0, 1, 2, 3}, {10, 11, 12, 30}, {20, 21, 0, 1, 2, 3}):
        sources = [i for i, node in enumerate(nodes) if node in component]
        assert_kernel_matches(adjacency, sources)
