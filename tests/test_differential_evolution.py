"""Differential evolution-chain harness: incremental == cold, bit-for-bit.

A versioned KB links each version's schema view to its parent's, and a
version whose class graph equals its parent's reuses the parent's
betweenness instead of running Brandes (``betweenness_artefact`` in
``measures/structural.py``); every other artefact computes from the
version's own snapshot.  That reuse must never drift from a from-scratch
recomputation.  These tests walk seeded randomized evolution chains and
assert that every derived artefact and every catalogue measure value is
*exactly* equal -- float equality, not approx -- between:

* the incremental path: the versioned KB's own chain, evaluated pair by
  pair in order so each version's view is linked to its warm parent, and
* the cold path: root-style ``Version`` objects over the same snapshot
  graphs, whose views have no parent and recompute everything.

The same invariant is re-checked after ``kb.compact()`` has dropped the
middle snapshots and delta-replay rematerialisation has rebuilt them.
Counting which pairs reuse keeps the rule honest both ways: instance-only
chains reuse on every commit, and the default op mix recomputes on some.
"""

import pytest

from repro.kb.version import Version
from repro.measures import structural
from repro.measures.base import EvolutionContext
from repro.measures.catalog import default_catalog
from repro.synthetic.config import EvolutionConfig, SchemaConfig, WorldConfig
from repro.synthetic.world import generate_world

#: >= 5 seeded chains of >= 8 versions each (acceptance criterion).
CHAIN_SEEDS = (11, 23, 37, 41, 53)
N_VERSIONS = 8

#: Instance-level op mix: the class graph stays put, so every child must
#: reuse its parent's betweenness.
INSTANCE_OPS = {
    "add_instance": 4.0,
    "remove_instance": 2.0,
    "add_link": 4.0,
    "remove_link": 2.0,
    "change_attribute": 2.0,
}


def _world(seed: int, op_mix=None):
    evolution = EvolutionConfig(
        n_versions=N_VERSIONS,
        changes_per_version=40,
        **({"op_mix": dict(op_mix)} if op_mix else {}),
    )
    config = WorldConfig(
        schema=SchemaConfig(n_classes=30, n_properties=20), evolution=evolution
    )
    return generate_world(seed=seed, config=config)


def _cold_version(version) -> Version:
    """A root-style clone: same snapshot graph, no parent, no delta hint."""
    return Version(version.version_id, version.graph)


def _assert_pair_identical(catalog, old, new):
    """Incremental vs cold evaluation of one version pair, bit-for-bit."""
    incremental = catalog.compute_all(EvolutionContext(old, new))
    cold_old, cold_new = _cold_version(old), _cold_version(new)
    cold = catalog.compute_all(EvolutionContext(cold_old, cold_new))

    assert incremental.keys() == cold.keys()
    for name in incremental:
        assert dict(incremental[name].scores) == dict(cold[name].scores), (
            f"measure {name} drifted on {old.version_id}->{new.version_id}"
        )
    # The underlying derived artefacts must match too, not just the measure
    # values built on them: raw betweenness maps per side...
    for version, cold_version in ((old, cold_old), (new, cold_new)):
        raw = version.schema.memo[structural.RAW_BETWEENNESS_KEY]
        cold_raw = cold_version.schema.memo[structural.RAW_BETWEENNESS_KEY]
        assert raw == cold_raw, f"raw betweenness drifted at {version.version_id}"
    # ...and every memoised relative cardinality / semantic centrality the
    # incremental side holds must agree with the cold side's value
    # wherever the cold side computed one.
    for key in ("semantic:rc", "semantic:centrality"):
        warm = new.schema.memo.get(key, {})
        cold_map = cold_new.schema.memo.get(key, {})
        for entry, value in cold_map.items():
            assert warm[entry] == value, f"{key} entry {entry} drifted"


def _reuses_parent_betweenness(old, new) -> bool:
    key = structural.BETWEENNESS_KEY
    return new.schema.memo[key][1] is old.schema.memo[key][1]


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_incremental_chain_matches_cold(seed):
    world = _world(seed)
    versions = list(world.kb)
    assert len(versions) >= 8
    catalog = default_catalog()
    reused = []
    for old, new in zip(versions, versions[1:]):
        _assert_pair_identical(catalog, old, new)
        reused.append(_reuses_parent_betweenness(old, new))
    # The default op mix changes the schema, so the reuse rule must not
    # fire on every pair.
    assert not all(reused), reused


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_incremental_chain_matches_cold_after_compact(seed):
    world = _world(seed)
    kb = world.kb
    catalog = default_catalog()
    # Warm the whole chain incrementally, then drop the middle snapshots
    # (and their schema views) and re-walk: every middle version now
    # rematerialises by delta replay and is linked to its parent again.
    versions = list(kb)
    for old, new in zip(versions, versions[1:]):
        catalog.compute_all(EvolutionContext(old, new))
    assert kb.compact() > 0
    for version in versions[1:-1]:
        assert not version.is_materialized
    for old, new in zip(versions, versions[1:]):
        _assert_pair_identical(catalog, old, new)


@pytest.mark.parametrize("seed", CHAIN_SEEDS[:2])
def test_instance_level_chains_use_the_incremental_path(seed, monkeypatch):
    """Instance-only commits keep the class graph, so Brandes runs once per chain."""
    calls = []
    original = structural.raw_betweenness

    def spy(graph):
        calls.append(len(graph))
        return original(graph)

    world = _world(seed, op_mix=INSTANCE_OPS)
    versions = list(world.kb)
    # World generation touches some views out of chain order (user profiles
    # read the latest schema); drop them so the walk below links every
    # non-root view to its freshly warmed parent.
    for version in versions:
        version._schema = None
    catalog = default_catalog()
    monkeypatch.setattr(structural, "raw_betweenness", spy)
    for old, new in zip(versions, versions[1:]):
        catalog.compute_all(EvolutionContext(old, new))
        assert _reuses_parent_betweenness(old, new), new.version_id
    # Only the root ran Brandes; every child reused its parent's artefact.
    assert len(calls) == 1
    monkeypatch.undo()
    for old, new in zip(versions, versions[1:]):
        _assert_pair_identical(catalog, old, new)
