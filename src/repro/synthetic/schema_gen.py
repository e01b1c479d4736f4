"""Synthetic ontology generation.

Generates a class forest (subsumption hierarchy) plus properties with
domain/range declarations.  The substitution rationale:
the paper's motivating knowledge bases (DBpedia, YAGO, ...) are schema
forests with typed links, and every downstream component consumes only the
schema/triple interface, so a parameterised random forest with the right
shape exercises identical code paths while providing planted ground truth.
"""

from __future__ import annotations

import random
from typing import List

from repro.kb.graph import Graph
from repro.kb.namespaces import (
    Namespace,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_CLASS,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
)
from repro.kb.terms import IRI
from repro.kb.triples import Triple
from repro.synthetic.config import SchemaConfig
from repro.util.rng import make_rng

#: Namespace of every synthetic term.
SYN = Namespace("http://synthetic.repro.org/onto#")


def class_iri(index: int) -> IRI:
    """The IRI of synthetic class ``index``."""
    return SYN[f"C{index}"]


def property_iri(index: int) -> IRI:
    """The IRI of synthetic property ``index``."""
    return SYN[f"p{index}"]


def generate_schema(
    config: SchemaConfig | None = None, seed: int | random.Random | None = 0
) -> Graph:
    """Generate the schema layer of a synthetic knowledge base.

    The first class is always a root; each later class either starts a new
    tree (with ``new_root_probability``) or attaches beneath a uniformly
    random earlier class, yielding the broad-shallow forests typical of real
    knowledge bases.  Properties pick a domain (biased towards reusing
    earlier domains, creating hub classes) and a uniform range.
    """
    config = config or SchemaConfig()
    rng = make_rng(seed)
    graph = Graph()

    classes: List[IRI] = []
    for index in range(config.n_classes):
        cls = class_iri(index)
        classes.append(cls)
        graph.add(Triple(cls, RDF_TYPE, RDFS_CLASS))
        if index > 0 and rng.random() >= config.new_root_probability:
            parent = classes[rng.randrange(index)]
            graph.add(Triple(cls, RDFS_SUBCLASSOF, parent))

    recent_domains: List[IRI] = []
    for index in range(config.n_properties):
        prop = property_iri(index)
        if recent_domains and rng.random() < config.reuse_domain_bias:
            domain = rng.choice(recent_domains)
        else:
            domain = rng.choice(classes)
            recent_domains.append(domain)
        range_cls = rng.choice(classes)
        graph.add(Triple(prop, RDF_TYPE, RDF_PROPERTY))
        graph.add(Triple(prop, RDFS_DOMAIN, domain))
        graph.add(Triple(prop, RDFS_RANGE, range_cls))

    return graph
