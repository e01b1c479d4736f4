"""Knowledge-base substrate: terms, triples, graphs, schema views, versions.

This subpackage is the substrate layer of ``docs/architecture.md``: an
RDF-style triple store with pattern indexes, a schema view exposing
classes / properties / subsumption / instances, a linear version chain,
and N-Triples round-tripping.
"""

from repro.kb.archive import (
    ArchivingPolicy,
    ChangeThreshold,
    ExponentialThinning,
    KeepAll,
    KeepLastN,
)
from repro.kb.errors import (
    KnowledgeBaseError,
    ParseError,
    SchemaError,
    TermError,
    VersionError,
    WireFormatError,
)
from repro.kb.graph import Graph
from repro.kb.interning import TermDictionary
from repro.kb.namespaces import (
    EX,
    Namespace,
    OWL,
    RDF,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    XSD,
)
from repro.kb.inference import entails, rdfs_closure
from repro.kb.ntriples import parse, parse_graph, serialize
from repro.kb.query import Pattern, SnapshotQuery, Var, ask, select
from repro.kb.schema import PropertyEdge, SchemaView
from repro.kb.terms import BNode, IRI, Literal, Term, is_resource
from repro.kb.triples import Triple
from repro.kb.version import Version, VersionedKnowledgeBase

__all__ = [
    "ArchivingPolicy",
    "ChangeThreshold",
    "ExponentialThinning",
    "KeepAll",
    "KeepLastN",
    "KnowledgeBaseError",
    "ParseError",
    "SchemaError",
    "TermError",
    "VersionError",
    "WireFormatError",
    "Graph",
    "TermDictionary",
    "EX",
    "Namespace",
    "OWL",
    "RDF",
    "RDF_PROPERTY",
    "RDF_TYPE",
    "RDFS",
    "RDFS_CLASS",
    "RDFS_DOMAIN",
    "RDFS_LABEL",
    "RDFS_RANGE",
    "RDFS_SUBCLASSOF",
    "XSD",
    "entails",
    "rdfs_closure",
    "parse",
    "parse_graph",
    "serialize",
    "Pattern",
    "SnapshotQuery",
    "Var",
    "ask",
    "select",
    "PropertyEdge",
    "SchemaView",
    "BNode",
    "IRI",
    "Literal",
    "Term",
    "is_resource",
    "Triple",
    "Version",
    "VersionedKnowledgeBase",
]
