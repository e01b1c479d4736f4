"""repro -- reproduction of "On Recommending Evolution Measures: A Human-aware
Approach" (Stefanidis, Kondylakis, Troullinou; ICDE 2017).

The package implements, from scratch, the full processing model the paper
envisions:

* a versioned RDF-style knowledge-base substrate (:mod:`repro.kb`),
* low-level and high-level delta computation (:mod:`repro.deltas`),
* the Section II catalogue of evolution measures (:mod:`repro.measures`),
* synthetic evolving knowledge bases and synthetic human feedback
  (:mod:`repro.synthetic`),
* the human model -- users, groups, interest profiles (:mod:`repro.profiles`),
* the human-aware recommendation engine with the five Section III
  perspectives: relatedness, transparency, diversity, fairness and anonymity
  (:mod:`repro.recommender`, :mod:`repro.provenance`, :mod:`repro.privacy`),
* and an evaluation framework regenerating the derived experiment suite
  (:mod:`repro.eval`).

Quickstart
----------

>>> from repro import synthetic, measures, recommender
>>> world = synthetic.generate_world(seed=7, n_classes=60)
>>> catalog = measures.default_catalog()
>>> engine = recommender.RecommenderEngine(world.kb, catalog)
>>> package = engine.recommend(world.users[0], k=5)
>>> len(package.items)
5

Public names are re-exported lazily (PEP 562) so importing :mod:`repro` stays
cheap and subpackages load on first use.
"""

from repro._version import __version__

_EXPORTS = {
    # kb
    "BNode": "repro.kb",
    "Graph": "repro.kb",
    "IRI": "repro.kb",
    "KnowledgeBaseError": "repro.kb",
    "Literal": "repro.kb",
    "SchemaView": "repro.kb",
    "Triple": "repro.kb",
    "VersionedKnowledgeBase": "repro.kb",
    # deltas
    "HighLevelDelta": "repro.deltas",
    "LowLevelDelta": "repro.deltas",
    # measures
    "EvolutionMeasure": "repro.measures",
    "MeasureCatalog": "repro.measures",
    "default_catalog": "repro.measures",
    "TrendAnalysis": "repro.measures",
    "WeightedMixMeasure": "repro.measures",
    "persona_mix": "repro.measures",
    # profiles
    "Group": "repro.profiles",
    "InterestProfile": "repro.profiles",
    "User": "repro.profiles",
    # recommender
    "RecommendationItem": "repro.recommender",
    "RecommendationPackage": "repro.recommender",
    "RecommenderEngine": "repro.recommender",
    "EngineConfig": "repro.recommender",
    # synthetic
    "generate_world": "repro.synthetic",
    "SyntheticWorld": "repro.synthetic",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
