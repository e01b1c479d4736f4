"""Betweenness and bridging centrality: unit tests plus networkx cross-checks.

networkx is a *verification oracle only* -- shipped code never imports it.
"""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphtools.adjacency import UndirectedGraph
from repro.graphtools.betweenness import betweenness_centrality
from repro.graphtools.bridging import bridging_centrality, bridging_coefficient


def _to_networkx(graph: UndirectedGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from(graph.edges())
    return g


class TestBetweennessKnownValues:
    def test_star_center_has_all_betweenness(self):
        g = UndirectedGraph([("c", i) for i in range(5)])
        bc = betweenness_centrality(g, normalized=True)
        assert bc["c"] == pytest.approx(1.0)
        for i in range(5):
            assert bc[i] == 0.0

    def test_path_middle_highest(self):
        g = UndirectedGraph([(0, 1), (1, 2), (2, 3), (3, 4)])
        bc = betweenness_centrality(g, normalized=False)
        assert bc[2] > bc[1] > bc[0]
        assert bc[0] == 0.0
        # Middle of a 5-path lies on 2*2 = 4 pairs' shortest paths.
        assert bc[2] == pytest.approx(4.0)

    def test_complete_graph_all_zero(self):
        nodes = range(5)
        g = UndirectedGraph([(a, b) for a in nodes for b in nodes if a < b])
        bc = betweenness_centrality(g)
        assert all(v == pytest.approx(0.0) for v in bc.values())

    def test_tiny_graph_normalization_safe(self):
        g = UndirectedGraph([(0, 1)])
        assert betweenness_centrality(g) == {0: 0.0, 1: 0.0}

    def test_empty_graph(self):
        assert betweenness_centrality(UndirectedGraph()) == {}

    def test_disconnected_components_independent(self):
        g = UndirectedGraph([(0, 1), (1, 2), (10, 11), (11, 12)])
        bc = betweenness_centrality(g, normalized=False)
        assert bc[1] == pytest.approx(1.0)
        assert bc[11] == pytest.approx(1.0)


class TestBridgingCoefficient:
    def test_isolated_node_zero(self):
        g = UndirectedGraph(nodes=["x"])
        assert bridging_coefficient(g)["x"] == 0.0

    def test_bridge_node_between_cliques(self):
        # Two triangles joined by a bridge node have the bridge highest.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, "b"), ("b", 3)]
        g = UndirectedGraph(edges)
        bridging = bridging_centrality(g, normalized=False)
        assert bridging["b"] == max(bridging.values())

    def test_coefficient_formula_on_path(self):
        g = UndirectedGraph([(0, 1), (1, 2)])
        coef = bridging_coefficient(g)
        # Node 1: degree 2, neighbours degree 1 each -> (1/2) / (1+1) = 0.25.
        assert coef[1] == pytest.approx(0.25)
        # Node 0: degree 1, neighbour degree 2 -> 1 / (1/2) = 2.
        assert coef[0] == pytest.approx(2.0)


def _random_graph(seed: int, n: int, p: float) -> UndirectedGraph:
    rng = random.Random(seed)
    g = UndirectedGraph(nodes=range(n))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                g.add_edge(a, b)
    return g


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 25),
    p=st.floats(0.05, 0.9),
)
def test_betweenness_matches_networkx(seed, n, p):
    g = _random_graph(seed, n, p)
    ours = betweenness_centrality(g, normalized=True)
    theirs = nx.betweenness_centrality(_to_networkx(g), normalized=True)
    assert set(ours) == set(theirs)
    for node in ours:
        assert math.isclose(ours[node], theirs[node], rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 20), p=st.floats(0.1, 0.9))
def test_unnormalized_betweenness_matches_networkx(seed, n, p):
    g = _random_graph(seed, n, p)
    ours = betweenness_centrality(g, normalized=False)
    theirs = nx.betweenness_centrality(_to_networkx(g), normalized=False)
    for node in ours:
        assert math.isclose(ours[node], theirs[node], rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 20), p=st.floats(0.1, 0.9))
def test_bridging_centrality_nonnegative_and_bounded(seed, n, p):
    g = _random_graph(seed, n, p)
    bridging = bridging_centrality(g)
    for value in bridging.values():
        assert value >= 0.0
        assert not math.isnan(value)
