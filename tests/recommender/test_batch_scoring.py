"""Batch utility scoring equals the per-item scoring paths."""

import numpy as np
import pytest

from repro.measures.base import MeasureFamily, TargetKind
from repro.kb.namespaces import EX
from repro.profiles.feedback import FeedbackEvent, FeedbackStore
from repro.profiles.group import Group
from repro.profiles.user import InterestProfile, User
from repro.recommender.engine import RecommenderEngine
from repro.recommender.fairness import select_package
from repro.recommender.items import RecommendationItem
from repro.recommender.ranking import utility_scores, utility_scores_batch
from repro.recommender.relatedness import RelatednessScorer
from repro.synthetic.config import EvolutionConfig, SchemaConfig, WorldConfig
from repro.synthetic.world import generate_world

FAMILIES = list(MeasureFamily)


def _items(n=12):
    items = []
    for i in range(n):
        items.append(
            RecommendationItem(
                measure_name=f"m{i % 4}",
                family=FAMILIES[i % len(FAMILIES)],
                target_kind=TargetKind.CLASS,
                target=EX[f"C{i % 7}"],
                evolution_score=round(0.05 + 0.9 * (i / n), 3),
            )
        )
    return items


def _users(n=5):
    users = []
    for u in range(n):
        weights = {EX[f"C{c}"]: ((u + c) % 5) / 4 for c in range(7)}
        fams = {FAMILIES[u % len(FAMILIES)]: 0.8, FAMILIES[(u + 1) % len(FAMILIES)]: 0.3}
        users.append(User(f"u{u}", InterestProfile(weights, fams)))
    return users


def _feedback(users, items):
    store = FeedbackStore()
    for u, user in enumerate(users):
        for i, item in enumerate(items):
            if (u + i) % 3 == 0:
                store.add(
                    FeedbackEvent(user.user_id, item.key, ((u * 7 + i * 3) % 10) / 10)
                )
    return store


class TestScoreBatch:
    @pytest.mark.parametrize("with_feedback", [False, True])
    @pytest.mark.parametrize("cold_start_fallback", [True, False])
    def test_matches_per_item_score(self, with_feedback, cold_start_fallback):
        items, users = _items(), _users()
        scorer = RelatednessScorer(
            alpha=0.6,
            feedback=_feedback(users, items) if with_feedback else None,
            cold_start_fallback=cold_start_fallback,
        )
        batch = scorer.score_batch(users, items)
        for user in users:
            expected = [scorer.score(user, item) for item in items]
            assert batch[user.user_id] == pytest.approx(expected, abs=1e-15)

    def test_unknown_user_falls_back_to_semantic(self):
        items, users = _items(), _users()
        scorer = RelatednessScorer(feedback=_feedback(users, items))
        stranger = User("stranger", users[0].profile)
        batch = scorer.score_batch([stranger], items)
        expected = [scorer.score(stranger, item) for item in items]
        assert batch["stranger"] == pytest.approx(expected, abs=1e-15)

    def test_unknown_items_fall_back_to_semantic(self):
        items, users = _items(), _users()
        rated_items, fresh_items = items[:6], items[6:]
        scorer = RelatednessScorer(feedback=_feedback(users, rated_items))
        batch = scorer.score_batch(users, fresh_items)
        for user in users:
            expected = [scorer.score(user, item) for item in fresh_items]
            assert batch[user.user_id] == pytest.approx(expected, abs=1e-15)

    def test_empty_item_pool(self):
        users = _users(2)
        batch = RelatednessScorer().score_batch(users, [])
        assert set(batch) == {u.user_id for u in users}
        assert all(len(scores) == 0 for scores in batch.values())

    def test_predict_matrix_matches_predict(self):
        items, users = _items(), _users()
        scorer = RelatednessScorer(feedback=_feedback(users, items))
        model = scorer._model
        keys = [item.key for item in items] + ["unknown::item"]
        user_ids = [u.user_id for u in users] + ["stranger"]
        matrix = model.predict_matrix(user_ids, keys)
        assert matrix.shape == (len(user_ids), len(keys))
        for row, user_id in enumerate(user_ids):
            for col, key in enumerate(keys):
                single = model.predict(user_id, key)
                if single is None:
                    assert np.isnan(matrix[row, col])
                else:
                    assert matrix[row, col] == pytest.approx(single, abs=1e-15)

    def test_predict_batch_matches_predict(self):
        items, users = _items(), _users()
        scorer = RelatednessScorer(feedback=_feedback(users, items))
        model = scorer._model
        keys = [item.key for item in items] + ["unknown::item"]
        for user_id in [u.user_id for u in users] + ["stranger"]:
            batch = model.predict_batch(user_id, keys)
            for i, key in enumerate(keys):
                single = model.predict(user_id, key)
                if single is None:
                    assert np.isnan(batch[i])
                else:
                    assert batch[i] == pytest.approx(single, abs=1e-15)


class TestUtilityScoresBatch:
    def test_matches_per_member_utilities(self):
        items, users = _items(), _users()
        scorer = RelatednessScorer(feedback=_feedback(users, items))
        batch = utility_scores_batch(users, items, scorer)
        for user in users:
            expected = utility_scores(user, items, scorer)
            assert set(batch[user.user_id]) == set(expected)
            for key, value in expected.items():
                assert batch[user.user_id][key] == pytest.approx(value, abs=1e-15)
        assert all(
            isinstance(v, float) for scores in batch.values() for v in scores.values()
        )

    def test_group_selection_identical_under_batch_utilities(self):
        items, users = _items(), _users(4)
        scorer = RelatednessScorer(feedback=_feedback(users, items))
        group = Group(group_id="g", members=tuple(users))
        per_member = {u.user_id: utility_scores(u, items, scorer) for u in group}
        batched = utility_scores_batch(list(group), items, scorer)
        for strategy in ("average", "least_misery", "fairness_aware"):
            expected = select_package(group, items, per_member, 5, strategy=strategy)
            got = select_package(group, items, batched, 5, strategy=strategy)
            assert [s.item.key for s in got] == [s.item.key for s in expected]


class TestEngineBatchPaths:
    @pytest.fixture(scope="class")
    def world(self):
        config = WorldConfig(
            schema=SchemaConfig(n_classes=25, n_properties=15),
            evolution=EvolutionConfig(n_versions=3, changes_per_version=50),
        )
        return generate_world(seed=7, config=config)

    def test_recommend_group_uses_all_members_scores(self, world):
        engine = RecommenderEngine(world.kb)
        group = world.groups[0]
        package = engine.recommend_group(group, k=5)
        assert len(package.items) <= 5
        assert package.audience == group.group_id
        for scored in package.items:
            assert scored.item.key in package.explanations

    def test_recommend_single_user_unchanged_by_batch_path(self, world):
        engine = RecommenderEngine(world.kb)
        user = world.users[0]
        package = engine.recommend(user, k=5)
        candidates = engine.candidates()
        scorer = engine.scorer()
        utilities = utility_scores(user, candidates, scorer)
        expected_top = sorted(utilities.items(), key=lambda kv: (-kv[1], kv[0]))
        got_utilities = {
            s.item.key: utilities[s.item.key] for s in package.items
        }
        # The diversifier reorders, but every selected utility must be the
        # per-item path's value for that key.
        for key, value in got_utilities.items():
            assert value == pytest.approx(dict(expected_top)[key], abs=1e-15)

    def test_candidate_pool_cached_per_context(self, world):
        engine = RecommenderEngine(world.kb)
        first = engine._pool()
        assert engine._pool() is first
        assert first.items == tuple(engine.candidates())
        other_context = world.full_context()
        assert engine._pool(other_context) is not first
