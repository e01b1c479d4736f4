"""Section II.c -- structural importance shifts.

"A shift in one node's Bridging Centrality or Betweenness among V1 and V2
could capture how the different changes on a dataset affected the topology
around this specific node."

Both measures build the class-level graph of each version (subsumption +
property domain/range edges), compute the centrality in each, and score each
class by the absolute difference.  Classes absent from a version have
centrality 0 there, so newly appearing or vanishing hub classes score high.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Mapping, Tuple

from repro.graphtools.adjacency import UndirectedGraph
from repro.graphtools.betweenness import normalize_betweenness, raw_betweenness
from repro.graphtools.bridging import bridging_centrality
from repro.kb.schema import SchemaView
from repro.kb.terms import IRI
from repro.measures.base import (
    EvolutionContext,
    EvolutionMeasure,
    MeasureFamily,
    MeasureResult,
    TargetKind,
)

CentralityFn = Callable[[UndirectedGraph], Mapping[Hashable, float]]

#: Schema-memo keys of the structural artefacts: the class graph, the class
#: graph with its normalized betweenness map, and the raw (unnormalized)
#: scores, which the replica warm handoff ships.
CLASS_GRAPH_KEY = "structural:class_graph"
BETWEENNESS_KEY = "structural:betweenness"
RAW_BETWEENNESS_KEY = "structural:betweenness:raw"
BRIDGING_KEY = "structural:bridging"


def class_graph(schema: SchemaView) -> UndirectedGraph:
    """The class-level graph of one version (every class is a node).

    Nodes and edges are inserted in sorted IRI order, so the graph's
    iteration order -- and with it every float accumulation downstream
    (betweenness, bridging coefficients) -- is a pure function of the
    schema content.  Two versions with equal class graphs therefore get
    equal Brandes floats, which lets :func:`betweenness_artefact` reuse a
    parent's scores.

    Memoised on the :class:`SchemaView`, so betweenness, the engine's
    distance table, every user's spread profile, summaries and replica
    seeding share one graph per version.  The graph is therefore
    read-only: callers must never add or remove its nodes or edges.
    """

    def _build():
        graph = UndirectedGraph(nodes=sorted(schema.classes(), key=lambda c: c.value))
        for a, b in sorted(schema.class_edges(), key=lambda e: (e[0].value, e[1].value)):
            graph.add_edge(a, b)
        return graph

    return schema.memoize(CLASS_GRAPH_KEY, _build)


def _same_class_graph(graph: UndirectedGraph, other: UndirectedGraph) -> bool:
    """True when both graphs hold the same nodes in the same order and the
    same neighbour set per node, so Brandes gives them the same floats."""
    if len(graph) != len(other):
        return False
    return all(
        a == b and graph.neighbors(a) == other.neighbors(b)
        for a, b in zip(graph.nodes(), other.nodes())
    )


def betweenness_artefact(schema: SchemaView) -> Tuple[UndirectedGraph, Mapping]:
    """The ``(class graph, normalized betweenness)`` artefact of one version.

    Memoised on the :class:`SchemaView` snapshot, so Brandes runs at most
    once per version.  When the version's class graph equals its parent's
    (an instance-only commit), the parent's scores are reused instead:
    equal graphs with equal node order give equal floats, so the check
    needs no delta.  It reads the parent's memo dict once, so the
    artefact and raw map it reuses belong to the same parent graph.  The
    artefact pairs the scores with the version's own graph, so a child
    never keeps its parent's graph alive.

    First fill runs under the view's lock (:meth:`SchemaView.memoize`), so
    concurrent serving threads hitting a cold version share one Brandes
    pass.  The raw map publishes before the artefact, so a child that
    finds a parent's artefact also finds its raw map.
    """

    def _build():
        graph = class_graph(schema)
        parent = schema.parent
        if parent is not None:
            parent_memo = parent.memo
            artefact = parent_memo.get(BETWEENNESS_KEY)
            raw = parent_memo.get(RAW_BETWEENNESS_KEY)
            if (
                artefact is not None
                and raw is not None
                and _same_class_graph(artefact[0], graph)
            ):
                schema.memo[RAW_BETWEENNESS_KEY] = raw
                return (graph, artefact[1])
        raw = raw_betweenness(graph)
        schema.memo[RAW_BETWEENNESS_KEY] = raw
        return (graph, normalize_betweenness(raw, len(graph)))

    return schema.memoize(BETWEENNESS_KEY, _build)


def bridging_scores(schema: SchemaView) -> Mapping:
    """Bridging centrality of every class of one version, memoised on the view."""

    def _build():
        graph, betweenness = betweenness_artefact(schema)
        return bridging_centrality(graph, betweenness=dict(betweenness))

    return schema.memoize(BRIDGING_KEY, _build)


def _graph_and_betweenness(context: EvolutionContext, which: str):
    """The class graph and betweenness map of one side, memoised on the schema.

    Both structural measures need the same betweenness scores, and the same
    version typically appears in many contexts (adjacent pairs share a
    side; benchmark loops rebuild contexts); memoising on the
    :class:`SchemaView` snapshot computes betweenness once per version, ever.
    The context memo keeps a reference for backwards compatibility.
    """
    context_key = f"structural:betweenness:{which}"
    if context_key not in context.memo:
        schema = context.old_schema if which == "old" else context.new_schema
        context.memo[context_key] = betweenness_artefact(schema)
    return context.memo[context_key]


class _CentralityShift(EvolutionMeasure):
    """Shared implementation: |centrality_V2(n) - centrality_V1(n)|."""

    family = MeasureFamily.STRUCTURAL
    target_kind = TargetKind.CLASS

    @staticmethod
    def _side_scores(schema: SchemaView) -> Mapping:
        raise NotImplementedError

    def compute(self, context: EvolutionContext) -> MeasureResult:
        # Touching the artefacts through the context keeps the per-context
        # memo references warm for callers that inspect them.
        _graph_and_betweenness(context, "old")
        _graph_and_betweenness(context, "new")
        old_scores = self._side_scores(context.old_schema)
        new_scores = self._side_scores(context.new_schema)
        shifts: Dict[IRI, float] = {}
        for cls in context.union_classes():
            shifts[cls] = abs(new_scores.get(cls, 0.0) - old_scores.get(cls, 0.0))
        return self._result(shifts)


class BetweennessShift(_CentralityShift):
    """Absolute change of betweenness centrality between the two versions."""

    name = "betweenness_shift"
    description = (
        "Absolute difference of the class's betweenness centrality in the "
        "class graphs of the two versions (Section II.c)."
    )

    @staticmethod
    def _side_scores(schema: SchemaView) -> Mapping:
        return betweenness_artefact(schema)[1]


class BridgingCentralityShift(_CentralityShift):
    """Absolute change of bridging centrality between the two versions."""

    name = "bridging_centrality_shift"
    description = (
        "Absolute difference of the class's bridging centrality (betweenness "
        "times bridging coefficient) between the two versions (Section II.c)."
    )

    @staticmethod
    def _side_scores(schema: SchemaView) -> Mapping:
        return bridging_scores(schema)
