"""Interest spreading: weights, and how far each focus's BFS walks."""

import pytest

from repro.graphtools.adjacency import UndirectedGraph
from repro.graphtools.spread import spread_interest


class CountingGraph(UndirectedGraph):
    """An undirected graph that records every node whose neighbours are read."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.expanded = []

    def neighbors(self, node):
        self.expanded.append(node)
        return super().neighbors(node)


def _path(n: int) -> CountingGraph:
    return CountingGraph([(i, i + 1) for i in range(n - 1)])


@pytest.mark.parametrize("depth", [0, 1, 2, 5])
def test_bfs_expands_nothing_farther_than_depth_minus_one(depth):
    graph = _path(500)
    weights = spread_interest(graph, [0], decay=0.5, depth=depth)
    assert weights == {i: 0.5**i for i in range(depth + 1)}
    assert set(graph.expanded) == set(range(depth))


def test_each_focus_walks_only_its_own_neighbourhood():
    graph = _path(500)
    weights = spread_interest(graph, [100, 103, 400], decay=0.5, depth=2)
    assert sorted(weights) == [98, 99, 100, 101, 102, 103, 104, 105, 398, 399, 400, 401, 402]
    assert weights[101] == weights[102] == 0.5
    assert set(graph.expanded) == {99, 100, 101, 102, 103, 104, 399, 400, 401}


def test_overlapping_foci_keep_the_largest_weight():
    graph = UndirectedGraph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "e")])
    weights = spread_interest(graph, ["a", "d"], decay=0.25, depth=2)
    assert weights == {"a": 1.0, "b": 0.25, "e": 0.25, "c": 0.25, "d": 1.0}


def test_negative_depth_spreads_nothing_but_absent_foci_keep_full_weight():
    graph = _path(5)
    assert spread_interest(graph, [2, "gone"], decay=0.5, depth=-1) == {"gone": 1.0}
