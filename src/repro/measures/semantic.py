"""Section II.d -- semantic importance measures and their shifts.

The paper sketches (following Troullinou et al. [15], the "RDF Digest"
summarisation line) three semantic notions, which we instantiate precisely:

Relative cardinality
    ``RC(e(n, ni))`` of a property edge ``e`` connecting classes ``n`` and
    ``ni``: the number of instance-level connections between the two classes
    through ``e``, divided by the total number of instance-level links that
    instances of the two classes participate in.  In [0, 1] by construction.

In/out-centrality
    ``Cin(n)`` / ``Cout(n)``: the sum of the relative cardinalities of the
    incoming / outgoing schema property edges of ``n``.  This combines the
    data distribution (through RC) with the number of incoming/outgoing
    properties (through the sum), exactly as the paper describes.

Relevance
    Extends centrality with the neighbourhood and the instance population:

        relevance(n) = (C(n) + mean_{m in N(n)} C(m)) * log2(1 + |I(n)|)

    where ``C = Cin + Cout``, ``N(n)`` is the schema neighbourhood of ``n``
    and ``|I(n)|`` its direct instance count.  Classes with central
    neighbours and many instances are more relevant, per the paper's
    intuition ("the relevance of a class is affected by the centrality of
    the class itself, as well as by the centrality of its neighboring
    classes ... the actual data instances of the class are also considered").

The *evolution* measures score each class by the absolute difference of the
importance value between the two versions: "an indirect way of measuring the
effects of a change on a class ... is, in many cases, superior to the simple
counting of changes, because it shows the cumulative effect of these changes"
(Section II.d).  Property variants (`PropertyCardinalityShift`) implement the
paper's closing remark that the definitions extend to properties.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.kb.schema import SchemaView
from repro.kb.terms import IRI
from repro.measures.base import (
    EvolutionContext,
    EvolutionMeasure,
    MeasureFamily,
    MeasureResult,
    TargetKind,
)

#: Schema-memo keys of the semantic artefact caches.
RC_KEY = "semantic:rc"
CENTRALITY_KEY = "semantic:centrality"
RELEVANCE_KEY = "semantic:relevance"


def relative_cardinality(schema: SchemaView, prop: IRI, source: IRI, target: IRI) -> float:
    """``RC(e(source, target))`` for one property edge in one version.

    Returns 0.0 when the classes have no instance links at all (the edge
    carries no data, so it contributes no importance).

    RC is a pure function of the schema snapshot, and centrality sums query
    the same edge for both of its endpoint classes (and again per neighbour
    in :func:`relevance`), so values are memoised on ``schema.memo``.
    """
    cache = schema.memoize(RC_KEY, dict)
    key = (prop, source, target)
    value = cache.get(key)
    if value is None:
        value = _relative_cardinality_uncached(schema, prop, source, target)
        cache[key] = value
    return value


def _relative_cardinality_uncached(
    schema: SchemaView, prop: IRI, source: IRI, target: IRI
) -> float:
    connections = schema.instance_connections(prop, source, target)
    if connections == 0:
        return 0.0
    total_links = schema.instance_link_count([source, target])
    if total_links == 0:
        return 0.0
    return connections / total_links


def in_centrality(schema: SchemaView, cls: IRI) -> float:
    """``Cin(n)``: sum of RCs of the incoming property edges of ``cls``."""
    return sum(
        relative_cardinality(schema, edge.prop, edge.source, edge.target)
        for edge in schema.incoming_properties(cls)
    )


def out_centrality(schema: SchemaView, cls: IRI) -> float:
    """``Cout(n)``: sum of RCs of the outgoing property edges of ``cls``."""
    return sum(
        relative_cardinality(schema, edge.prop, edge.source, edge.target)
        for edge in schema.outgoing_properties(cls)
    )


def centrality(schema: SchemaView, cls: IRI) -> float:
    """Total semantic centrality ``C(n) = Cin(n) + Cout(n)`` (memoised)."""
    cache = schema.memoize(CENTRALITY_KEY, dict)
    value = cache.get(cls)
    if value is None:
        value = in_centrality(schema, cls) + out_centrality(schema, cls)
        cache[cls] = value
    return value


def relevance(schema: SchemaView, cls: IRI) -> float:
    """Semantic relevance of ``cls`` in one version (see module docstring).

    Memoised per view: the same version's view serves every context that
    touches it.
    """
    cache = schema.memoize(RELEVANCE_KEY, dict)
    value = cache.get(cls)
    if value is None:
        own = centrality(schema, cls)
        neighbours = schema.neighborhood(cls)
        if neighbours:
            # Sorted accumulation: the neighbourhood is a frozenset, whose
            # iteration order follows the per-process hash salt, and float
            # addition is not associative -- an unsorted sum can drift by
            # an ulp between processes, breaking the serving layer's
            # cross-process bit-identity contract.
            neighbour_term = sum(
                sorted(centrality(schema, m) for m in neighbours)
            ) / len(neighbours)
        else:
            neighbour_term = 0.0
        population = schema.instance_count(cls, transitive=True)
        value = (own + neighbour_term) * math.log2(1 + population)
        cache[cls] = value
    return value


class _SemanticShift(EvolutionMeasure):
    """Shared implementation: |importance_V2(n) - importance_V1(n)|."""

    family = MeasureFamily.SEMANTIC
    target_kind = TargetKind.CLASS

    @staticmethod
    def _importance(schema: SchemaView, cls: IRI) -> float:
        raise NotImplementedError

    def compute(self, context: EvolutionContext) -> MeasureResult:
        old_schema, new_schema = context.old_schema, context.new_schema
        old_classes, new_classes = old_schema.classes(), new_schema.classes()
        shifts: Dict[IRI, float] = {}
        for cls in context.union_classes():
            before = self._importance(old_schema, cls) if cls in old_classes else 0.0
            after = self._importance(new_schema, cls) if cls in new_classes else 0.0
            shifts[cls] = abs(after - before)
        return self._result(shifts)


class InOutCentralityShift(_SemanticShift):
    """Absolute change of semantic centrality (Cin + Cout) per class."""

    name = "centrality_shift"
    description = (
        "Absolute difference of the class's semantic in/out-centrality (sum "
        "of relative cardinalities of its property edges) between versions "
        "(Section II.d)."
    )

    @staticmethod
    def _importance(schema: SchemaView, cls: IRI) -> float:
        return centrality(schema, cls)


class RelevanceShift(_SemanticShift):
    """Absolute change of semantic relevance per class."""

    name = "relevance_shift"
    description = (
        "Absolute difference of the class's relevance (centrality of the "
        "class and its neighbours, weighted by instance population) between "
        "versions (Section II.d)."
    )

    @staticmethod
    def _importance(schema: SchemaView, cls: IRI) -> float:
        return relevance(schema, cls)


class PropertyCardinalityShift(EvolutionMeasure):
    """Property-level importance shift (the paper's 'extensions' remark).

    A property's importance in one version is the sum of the relative
    cardinalities of its schema edges; the measure scores the absolute
    difference between versions.
    """

    name = "property_cardinality_shift"
    family = MeasureFamily.SEMANTIC
    target_kind = TargetKind.PROPERTY
    description = (
        "Absolute difference of the property's total relative cardinality "
        "across its domain/range edges between versions (Section II.d, "
        "property extension)."
    )

    @staticmethod
    def _importance(schema: SchemaView, prop: IRI) -> float:
        return sum(
            relative_cardinality(schema, edge.prop, edge.source, edge.target)
            for edge in schema.edges_of_property(prop)
        )

    def compute(self, context: EvolutionContext) -> MeasureResult:
        old_schema, new_schema = context.old_schema, context.new_schema
        old_props, new_props = old_schema.properties(), new_schema.properties()
        shifts: Dict[IRI, float] = {}
        for prop in context.union_properties():
            before = self._importance(old_schema, prop) if prop in old_props else 0.0
            after = self._importance(new_schema, prop) if prop in new_props else 0.0
            shifts[prop] = abs(after - before)
        return self._result(shifts)
