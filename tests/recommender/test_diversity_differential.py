"""Differential tests: the array read path picks exactly what the scalar loops pick.

The reference loops below are the selectors as they were written over
:meth:`ItemDistance.__call__` -- O(k²·n) Python distance calls.  The
production selectors read every distance from a :class:`DistanceTable`
and keep the same scan, so the picks (and their order) must match item
for item on any pool, whether the selector builds an ad-hoc table from
an :class:`ItemDistance` or reads the engine's per-pair table.  At the
engine level, the reference is the whole object pipeline a read ran
before candidate pools: score row, utility and relatedness dicts, one
sorted :class:`ScoredItem` per candidate, the scalar loops, and
:func:`explain_item`.
"""

import json
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphtools.adjacency import UndirectedGraph
from repro.graphtools.traversal import bfs_distances
from repro.io.storage import package_to_dict
from repro.kb.namespaces import EX
from repro.measures.base import MeasureFamily, TargetKind
from repro.measures.structural import class_graph
from repro.recommender.diversity import (
    DistanceTable,
    ItemDistance,
    coverage_select,
    max_min_select,
    mmr_select,
    novelty_select,
)
from repro.recommender import engine as engine_module
from repro.recommender.engine import DIVERSIFIERS, EngineConfig, RecommenderEngine
from repro.recommender.items import RecommendationItem, RecommendationPackage, ScoredItem
from repro.recommender.ranking import CandidatePool, rank_items
from repro.recommender.transparency import explain_item
from repro.synthetic.config import EvolutionConfig, SchemaConfig, UserConfig, WorldConfig
from repro.synthetic.users import simulate_feedback
from repro.synthetic.world import generate_world

# -- the scalar reference loops --------------------------------------------------


def reference_greedy_mmr(candidates, k, distance, lam, seen=()):
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    pool = sorted(candidates, key=lambda s: (-s.utility, s.item.key))
    selected = []
    while pool and len(selected) < k:
        best_index = 0
        best_value = float("-inf")
        for index, scored in enumerate(pool):
            reference = [s.item for s in selected] + list(seen)
            if reference:
                max_similarity = max(1.0 - distance(scored.item, other) for other in reference)
            else:
                max_similarity = 0.0
            value = lam * scored.utility - (1.0 - lam) * max_similarity
            if value > best_value + 1e-12:
                best_value = value
                best_index = index
        selected.append(pool.pop(best_index))
    return selected


def reference_max_min(candidates, k, distance, lam):
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    pool = sorted(candidates, key=lambda s: (-s.utility, s.item.key))
    if not pool or k == 0:
        return []
    selected = [pool.pop(0)]
    while pool and len(selected) < k:
        best_index = 0
        best_value = float("-inf")
        for index, scored in enumerate(pool):
            min_distance = min(distance(scored.item, s.item) for s in selected)
            value = lam * scored.utility + (1.0 - lam) * min_distance
            if value > best_value + 1e-12:
                best_value = value
                best_index = index
        selected.append(pool.pop(best_index))
    return selected


def reference_rank(candidates, utilities):
    scored = [ScoredItem(item=item, utility=utilities.get(item.key, 0.0)) for item in candidates]
    scored.sort(key=lambda s: (-s.utility, s.item.key))
    return scored


def reference_coverage(candidates, k):
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    pool = sorted(candidates, key=lambda s: (-s.utility, s.item.key))
    selected = []
    while pool and len(selected) < k:
        covered = set()
        progressed = False
        for scored in list(pool):
            if len(selected) >= k:
                break
            if scored.item.family in covered:
                continue
            covered.add(scored.item.family)
            selected.append(scored)
            pool.remove(scored)
            progressed = True
        if not progressed:
            break
    return selected


# -- random pools ----------------------------------------------------------------

CLASSES = [EX[f"C{i}"] for i in range(8)]
PROPERTIES = [EX[f"p{i}"] for i in range(3)]  # never nodes of the class graph
MEASURES = ["count", "neigh", "betw", "relev"]
WEIGHTS = [
    (0.3, 0.3, 0.4),
    (0.1, 0.2, 0.7),
    (0.0, 0.0, 1.0),
    (0.5, 0.5, 0.0),
    # A target term far below the scan's 1e-12 tolerance: near-ties galore.
    (0.5, 0.5 - 5e-13, 5e-13),
]


@st.composite
def class_graphs(draw):
    if draw(st.booleans()):
        return None
    edges = draw(
        st.lists(st.tuples(st.sampled_from(CLASSES), st.sampled_from(CLASSES)), max_size=14)
    )
    return UndirectedGraph(edges, nodes=CLASSES)


@st.composite
def distances(draw):
    wm, wf, wt = draw(st.sampled_from(WEIGHTS))
    return ItemDistance(
        class_graph=draw(class_graphs()),
        measure_weight=wm,
        family_weight=wf,
        target_weight=wt,
        horizon=draw(st.integers(1, 4)),
    )


items = st.builds(
    RecommendationItem,
    measure_name=st.sampled_from(MEASURES),
    family=st.sampled_from(list(MeasureFamily)),
    target_kind=st.just(TargetKind.CLASS),
    target=st.sampled_from(CLASSES + PROPERTIES),
    evolution_score=st.just(1.0),
)
# Few distinct values, so ties (and zero utilities) are common; the
# ±4e-13 pair ties 0.5 within the scan's 1e-12 tolerance.
utilities = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.5 - 4e-13, 0.5 + 4e-13]), st.floats(0.0, 1.0)
)
lambdas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def pools(draw, unique_keys=False):
    pool_items = draw(
        st.lists(
            items,
            max_size=14,
            unique_by=(lambda item: item.key) if unique_keys else None,
        )
    )
    scored = [ScoredItem(item=item, utility=draw(utilities)) for item in pool_items]
    seen = draw(st.lists(st.sampled_from(pool_items), max_size=4)) if pool_items else []
    k = draw(st.integers(0, len(scored) + 2))
    return scored, seen, k


def assert_same_picks(ours, reference):
    # Identity, not equality: a pool may hold equal duplicates, and both
    # selectors must pick the very same entries in the very same order.
    assert [id(s) for s in ours] == [id(s) for s in reference]


@settings(max_examples=200, deadline=None)
@given(pool=pools(), distance=distances(), lam=lambdas)
def test_adhoc_selectors_match_scalar_reference(pool, distance, lam):
    scored, seen, k = pool
    assert_same_picks(
        mmr_select(scored, k, distance, lam), reference_greedy_mmr(scored, k, distance, lam)
    )
    assert_same_picks(
        novelty_select(scored, k, distance, seen, lam),
        reference_greedy_mmr(scored, k, distance, lam, seen),
    )
    assert_same_picks(
        max_min_select(scored, k, distance, lam), reference_max_min(scored, k, distance, lam)
    )
    assert_same_picks(coverage_select(scored, k), reference_coverage(scored, k))


@settings(max_examples=200, deadline=None)
@given(pool=pools())
def test_rank_items_matches_sorted_order(pool):
    scored, _, _ = pool
    candidates = [s.item for s in scored]
    # A repeated key keeps its last utility, as a dict of them does.
    utilities = {s.item.key: s.utility for s in scored}
    assert rank_items(candidates, utilities) == reference_rank(candidates, utilities)


@settings(max_examples=200, deadline=None)
@given(pool=pools(unique_keys=True), distance=distances(), lam=lambdas)
def test_table_selectors_match_scalar_reference(pool, distance, lam):
    """Read through one shared table, as the engine does: the pool's rows
    are found by key and the selectors see the pool in any order."""
    scored, seen, k = pool
    table = distance.table([s.item for s in reversed(scored)])
    assert_same_picks(
        mmr_select(scored, k, table, lam), reference_greedy_mmr(scored, k, distance, lam)
    )
    assert_same_picks(
        novelty_select(scored, k, table, seen, lam),
        reference_greedy_mmr(scored, k, distance, lam, seen),
    )
    assert_same_picks(
        max_min_select(scored, k, table, lam), reference_max_min(scored, k, distance, lam)
    )


@settings(max_examples=100, deadline=None)
@given(pool_items=st.lists(items, max_size=12), distance=distances())
def test_table_columns_are_bit_identical_to_scalar_distance(pool_items, distance):
    table = distance.table(pool_items)
    column = table.columns(list(range(len(pool_items))))
    for j, b in enumerate(pool_items):
        # tolist() floats compare exactly: no tolerance anywhere.
        assert column(j).tolist() == [distance(a, b) for a in pool_items]


@settings(max_examples=100, deadline=None)
@given(graph=class_graphs(), horizon=st.integers(1, 4))
def test_capped_bfs_keeps_the_uncapped_target_rule(graph, horizon):
    """Target distance from a full BFS, capped afterwards, as it was
    defined before the BFS itself stopped at the horizon."""
    distance = ItemDistance(
        class_graph=graph, measure_weight=0.0, family_weight=0.0, target_weight=1.0,
        horizon=horizon,
    )
    targets = CLASSES + PROPERTIES
    for a in targets:
        hops = bfs_distances(graph, a) if graph is not None and a in graph else {}
        for b in targets:
            item_a = RecommendationItem("m", MeasureFamily.COUNT, TargetKind.CLASS, a, 1.0)
            item_b = RecommendationItem("m", MeasureFamily.COUNT, TargetKind.CLASS, b, 1.0)
            if a == b:
                expected = 0.0
            elif b in hops and hops[b] < horizon:
                expected = hops[b] / horizon
            else:
                expected = 1.0
            assert distance(item_a, item_b) == expected


def test_scan_keeps_the_first_of_near_ties():
    """A later value that beats the best by less than 1e-12 is not picked."""
    distance = ItemDistance(measure_weight=0.5, family_weight=0.5 - 5e-13, target_weight=5e-13)
    first = RecommendationItem("m", MeasureFamily.COUNT, TargetKind.CLASS, EX.A, 1.0)
    near = RecommendationItem("m", MeasureFamily.COUNT, TargetKind.CLASS, EX.C, 1.0)
    # lam = 0: values are -max_similarity.  After `first`, its duplicate
    # scores -1.0 and the later `near` -(1 - 5e-13): higher, but within 1e-12.
    scored = [ScoredItem(first, 1.0), ScoredItem(first, 0.9), ScoredItem(near, 0.8)]
    picks = mmr_select(scored, 2, distance, lam=0.0)
    assert picks[1] is scored[1]
    assert_same_picks(picks, reference_greedy_mmr(scored, 2, distance, 0.0))


def test_fixture_with_repeated_keys_still_selects():
    """Ad-hoc lists may repeat a key (count@A twice); only tables need unique keys."""
    item = RecommendationItem("count", MeasureFamily.COUNT, TargetKind.CLASS, EX.A, 1.0)
    twin = RecommendationItem("count", MeasureFamily.COUNT, TargetKind.CLASS, EX.A, 1.0)
    scored = [ScoredItem(item, 1.0), ScoredItem(twin, 0.95)]
    distance = ItemDistance()
    assert_same_picks(
        mmr_select(scored, 2, distance, 0.5), reference_greedy_mmr(scored, 2, distance, 0.5)
    )


def test_table_rejects_items_it_does_not_hold():
    inside = RecommendationItem("count", MeasureFamily.COUNT, TargetKind.CLASS, EX.A, 1.0)
    outside = RecommendationItem("count", MeasureFamily.COUNT, TargetKind.CLASS, EX.B, 1.0)
    table = ItemDistance().table([inside])
    with pytest.raises(ValueError, match="not in this distance table"):
        mmr_select([ScoredItem(inside, 1.0), ScoredItem(outside, 0.5)], 2, table)


# -- engine level ------------------------------------------------------------------


class ReferenceEngine(RecommenderEngine):
    """A read as the engine ran it before candidate pools, object by object.

    Each user's score row becomes utility and relatedness dicts, every
    candidate a :class:`ScoredItem`, the sorted list goes through the
    scalar reference loops over a fresh :class:`ItemDistance`, and each
    pick is explained.
    """

    def recommend(self, user, k=None, context=None):
        return self.recommend_many([user], k, context)[user.user_id]

    def recommend_many(self, users, k=None, context=None):
        context = context or self.context()
        k = self.config.k if k is None else k
        candidates = self.candidates(context)
        rows = self.scorer(context).score_batch(users, candidates)
        packages = {}
        for user in users:
            row = rows[user.user_id]
            relatedness = {item.key: float(r) for item, r in zip(candidates, row)}
            utilities = {
                item.key: float(item.evolution_score * r) for item, r in zip(candidates, row)
            }
            ranked = reference_rank(candidates, utilities)
            selected = self._reference_select(user, ranked, k, context)
            packages[user.user_id] = RecommendationPackage(
                items=tuple(selected),
                audience=user.user_id,
                explanations={
                    s.item.key: explain_item(s, user, self.catalog, relatedness[s.item.key])
                    for s in selected
                },
                metadata={
                    "context": f"{context.old.version_id}->{context.new.version_id}",
                    "diversifier": self.config.diversifier,
                },
            )
        return packages

    def _reference_select(self, user, ranked, k, context):
        name, lam = self.config.diversifier, self.config.mmr_lambda
        if name == "none":
            return ranked[:k]
        if name == "coverage":
            return reference_coverage(ranked, k)
        distance = ItemDistance(class_graph=class_graph(context.new_schema))
        if name == "max_min":
            return reference_max_min(ranked, k, distance, lam)
        seen = []
        if name == "novelty" and self._feedback is not None:
            by_key = {item.key: item for item in self.candidates(context)}
            seen = [
                by_key[key]
                for key in self._feedback.ratings_by_user(user.user_id)
                if key in by_key
            ]
        return reference_greedy_mmr(ranked, k, distance, lam, seen)


@pytest.fixture(scope="module")
def bench_world():
    """The serving bench's world (seed 4242: 120 classes, 3 versions of 150
    changes, 64 users), with feedback so the novelty diversifier has seen
    histories to avoid."""
    world = generate_world(
        seed=4242,
        config=WorldConfig(
            schema=SchemaConfig(n_classes=120, n_properties=80),
            evolution=EvolutionConfig(n_versions=3, changes_per_version=150),
            users=UserConfig(n_users=64),
        ),
    )
    keys = [item.key for item in RecommenderEngine(world.kb).candidates()]
    feedback = simulate_feedback(
        world.users, keys, lambda user, key: 0.5, UserConfig(events_per_user=6), seed=7
    )
    return world, feedback


def bodies(packages):
    return {user_id: json.dumps(package_to_dict(p)) for user_id, p in packages.items()}


def assert_same_bodies(ours, reference, users, k):
    expected = bodies(reference.recommend_many(users, k))
    got = bodies(ours.recommend_many(users, k))
    assert list(got) == list(expected)
    for user_id, body in expected.items():
        assert got[user_id] == body, f"package diverged for {user_id} at k={k}"
    for user in users[:3]:
        assert json.dumps(package_to_dict(ours.recommend(user, k))) == expected[user.user_id]


#: A small pool (4 targets per measure), so a whole-pool package stays
#: cheap for the O(k²·n) reference loops.
SMALL_POOL = 4


@pytest.mark.parametrize("k", [0, 1, 5, "pool+3"])
@pytest.mark.parametrize("with_feedback", [False, True], ids=["plain", "feedback"])
@pytest.mark.parametrize("diversifier", DIVERSIFIERS)
def test_engine_packages_are_byte_identical_to_reference(
    bench_world, diversifier, with_feedback, k
):
    world, feedback = bench_world
    users = world.users
    per_measure = 25  # repro serve's pool
    if k == "pool+3":
        per_measure, users = SMALL_POOL, users[:12]
    # repro serve's engine configuration, per diversifier.
    config = EngineConfig(
        k=5, spread_depth=1, diversifier=diversifier, per_measure_candidates=per_measure
    )
    feedback = feedback if with_feedback else None
    ours = RecommenderEngine(world.kb, config=config, feedback=feedback)
    reference = ReferenceEngine(world.kb, config=config, feedback=feedback)
    if k == "pool+3":
        k = len(ours.candidates()) + 3
    assert_same_bodies(ours, reference, users, k)
    table = ours._artefacts_for(ours.context()).distances
    if diversifier in ("none", "coverage"):
        # Neither selector reads distances, so neither builds a table.
        assert table is None
    else:
        assert isinstance(table, DistanceTable)


class FixedRows:
    """Stands in for a scorer: every user's relatedness row is given."""

    def __init__(self, rows):
        self.rows = rows

    def score_rows(self, users, pool):
        return [self.rows[user.user_id] for user in users]

    def score_batch(self, users, items):
        return {user.user_id: self.rows[user.user_id] for user in users}


#: Gaps between two items' similarity (or distance) to a picked item under
#: the engine's default distance weights (0.3, 0.3, 0.4; horizon 3).
SIMILARITY_GAPS = [0.0, 0.4 / 3, 0.3, 0.6]


@st.composite
def tied_rows(draw, evolution, lam=EngineConfig().mmr_lambda):
    """A relatedness row whose utilities tie exactly, vanish, or nearly tie.

    An item's utility lands within an ulp of ``target - (1 - lam) / lam *
    gap``, give or take 4e-13.  A later-ranked item whose similarity penalty
    is ``gap`` lower than an earlier item's then scores within 1e-12 of it
    in MMR (and likewise for Max-Min distances), so the scan's tie rule
    decides; 0.5 and 1.0 tie every item of equal evolution score.
    """
    if draw(st.integers(0, 4)) == 0:
        return np.zeros(len(evolution))
    target = draw(st.sampled_from([0.3, 0.5]))
    kinds = st.sampled_from(["zero", "half", "one", "stepped", "free"])
    row = []
    for score in evolution:
        kind = draw(kinds)
        if kind == "free":
            row.append(draw(st.floats(0.0, 1.0)))
        elif kind == "stepped":
            utility = target - (1.0 - lam) / lam * draw(st.sampled_from(SIMILARITY_GAPS))
            scale = draw(st.sampled_from([1.0, 1.0 + 4e-13, 1.0 - 4e-13]))
            row.append(min(1.0, utility / score * scale))
        else:
            row.append({"zero": 0.0, "half": 0.5, "one": 1.0}[kind])
    return np.array(row)


@pytest.fixture(scope="module")
def small_pool_engines(bench_world):
    """``diversifier -> (ours, reference)`` on a small pool, with feedback."""
    world, feedback = bench_world
    engines = {}
    for diversifier in DIVERSIFIERS:
        config = EngineConfig(
            k=5, spread_depth=1, diversifier=diversifier, per_measure_candidates=SMALL_POOL
        )
        engines[diversifier] = (
            RecommenderEngine(world.kb, config=config, feedback=feedback),
            ReferenceEngine(world.kb, config=config, feedback=feedback),
        )
    return engines


@pytest.mark.parametrize("diversifier", DIVERSIFIERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_engine_matches_reference_on_tied_rows(
    bench_world, small_pool_engines, diversifier, data
):
    """Exact ties, all-zero rows and near-ties: the ranking falls back to key
    order, and the selectors keep the first of values within 1e-12."""
    world, _ = bench_world
    ours, reference = small_pool_engines[diversifier]
    users = world.users[:3]
    evolution = [item.evolution_score for item in ours.candidates()]
    scorer = FixedRows({user.user_id: data.draw(tied_rows(evolution)) for user in users})
    ours.scorer = reference.scorer = lambda context=None: scorer
    k = data.draw(st.sampled_from([0, 1, 5, len(evolution) + 3]))
    assert_same_bodies(ours, reference, users, k)


def race(engine, users, context, n_threads=8):
    """``n_threads`` threads read one pair at once; returns each one's packages."""
    barrier = threading.Barrier(n_threads)
    results, errors = [None] * n_threads, []

    def read(index):
        try:
            barrier.wait(timeout=30)
            results[index] = engine.recommend_many(users, context=context)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [
        threading.Thread(target=read, args=(index,), daemon=True) for index in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to widen every race window
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    return results


def assert_equal_to_serial(world, results):
    expected = bodies(RecommenderEngine(world.kb).recommend_many(world.users))
    for packages in results:
        assert bodies(packages) == expected


def test_concurrent_reads_on_a_cold_pair_build_one_table(world, monkeypatch):
    """Many threads racing on one cold pair share a single table fill, and
    every thread's packages equal a serial engine's, byte for byte."""
    builds = []
    build_table = ItemDistance.table

    def counting_table(self, items):
        builds.append(threading.get_ident())
        return build_table(self, items)

    monkeypatch.setattr(ItemDistance, "table", counting_table)
    engine = RecommenderEngine(world.kb)
    results = race(engine, world.users, engine.context())
    assert len(builds) == 1
    assert_equal_to_serial(world, results)


def test_concurrent_reads_on_a_cold_pair_build_one_pool(world, monkeypatch):
    """The same race over the candidate pool: one build, shared by every
    thread, and packages equal to a serial engine's."""
    builds = []

    class CountingPool(CandidatePool):
        __slots__ = ()

        def __init__(self, items):
            builds.append(threading.get_ident())
            time.sleep(0.01)  # hold the fill open while the others arrive
            super().__init__(items)

    monkeypatch.setattr(engine_module, "CandidatePool", CountingPool)
    engine = RecommenderEngine(world.kb)
    context = engine.context()
    results = race(engine, world.users, context)
    assert len(builds) == 1
    assert engine._pool(context) is engine._artefacts_for(context).pool
    assert_equal_to_serial(world, results)


def test_pool_arrays_are_read_only(world):
    pool = RecommenderEngine(world.kb)._pool()
    for array in (pool.evolution, pool.target_ids, pool.family_ids, pool.key_rank):
        assert len(array) == len(pool.items)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
        with pytest.raises(ValueError, match="read-only"):
            array += array
