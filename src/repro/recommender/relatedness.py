"""The relatedness perspective (Section III.a).

"Users would like to retrieve only a small piece of the evolved data, namely
the most relevant to their interests and needs."

Relatedness of an item ``(measure, target)`` to a user blends two signals:

semantic
    How much the user's interest profile covers the item's target class,
    weighted by the user's preference for the measure's family.  Optionally
    the profile is first *spread* over the class graph with per-hop decay,
    so interest in ``Person`` also lights up ``Student`` (an ablation knob
    of experiment E4).

collaborative
    Item-based collaborative filtering over the feedback store: items the
    user rated highly pull up similar items (cosine similarity of item
    rating vectors across users).

``score = alpha * semantic + (1 - alpha) * collaborative``; with no feedback
available the scorer degrades to the semantic part alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graphtools.adjacency import UndirectedGraph
from repro.kb.schema import SchemaView
from repro.kb.terms import IRI
from repro.measures.structural import class_graph
from repro.profiles.feedback import FeedbackStore
from repro.profiles.user import InterestProfile, User
from repro.recommender.items import RecommendationItem
from repro.recommender.ranking import CandidatePool
from repro.graphtools.spread import spread_interest
from repro.util.validation import require_probability


def spread_profile(
    profile: InterestProfile,
    schema: SchemaView,
    decay: float = 0.5,
    depth: int = 2,
) -> InterestProfile:
    """Spread a profile's class interest over the schema's class graph.

    Each class the user cares about radiates ``decay ** distance`` interest
    to classes within ``depth`` hops; overlapping sources take the maximum
    (scaled by the source's own weight).
    """
    return _spread_over(profile, class_graph(schema), decay, depth)


def _spread_over(
    profile: InterestProfile, graph: UndirectedGraph, decay: float, depth: int
) -> InterestProfile:
    """:func:`spread_profile` over an already-built class graph."""
    require_probability(decay, "decay")
    spread: Dict[IRI, float] = dict(profile.class_weights)
    for focus, weight in profile.class_weights.items():
        if weight <= 0:
            continue
        for cls, base in spread_interest(graph, [focus], decay, depth).items():
            scaled = base * weight
            if scaled > spread.get(cls, 0.0):
                spread[cls] = scaled
    return InterestProfile(
        class_weights=spread, family_weights=dict(profile.family_weights)
    )


def semantic_relatedness(user: User, item: RecommendationItem) -> float:
    """Profile-based relatedness in [0, 1].

    Interest in the target class times the (normalised-to-1-max) family
    preference.  Family preferences are already in [0, 1] by convention of
    :class:`~repro.profiles.user.InterestProfile`.
    """
    interest = min(1.0, user.profile.interest_in(item.target))
    family = min(1.0, user.profile.family_preference(item.family))
    return interest * family


class CollaborativeModel:
    """Item-based CF over a feedback store.

    Similarities are cosine over the user x item mean-rating matrix,
    computed once at construction (numpy); prediction is the
    similarity-weighted average of the user's own ratings.
    """

    def __init__(self, store: FeedbackStore) -> None:
        self._users, self._items, matrix = store.matrix()
        self._user_index = {u: i for i, u in enumerate(self._users)}
        self._item_index = {k: j for j, k in enumerate(self._items)}
        self._matrix = matrix
        if matrix.size:
            norms = np.linalg.norm(matrix, axis=0)
            norms[norms == 0.0] = 1.0
            normalised = matrix / norms
            self._similarity = normalised.T @ normalised
        else:
            self._similarity = np.zeros((0, 0))

    def predict_batch(self, user_id: str, item_keys: Sequence[str]) -> "np.ndarray":
        """Predicted ratings for many items at once; ``nan`` marks undecidable.

        Vectorised but numerically identical to :meth:`predict`: each row's
        weighted average reduces the same values in the same order as the
        per-item code path.
        """
        return self.predict_matrix([user_id], item_keys)[0]

    def predict_matrix(
        self, user_ids: Sequence[str], item_keys: Sequence[str]
    ) -> "np.ndarray":
        """Predicted ratings for every (user, item) pair; ``nan`` marks undecidable.

        Returns an array of shape ``(len(user_ids), len(item_keys))``.  The
        item-side work -- key interning and the similarity-row gather -- is
        user-independent and done once for the whole matrix.
        """
        out = np.full((len(user_ids), len(item_keys)), np.nan)
        if not len(item_keys) or not len(user_ids):
            return out
        positions = [i for i, k in enumerate(item_keys) if k in self._item_index]
        if not positions:
            return out
        item_idxs = np.fromiter(
            (self._item_index[item_keys[i]] for i in positions),
            dtype=np.intp,
            count=len(positions),
        )
        similarity_rows = self._similarity[item_idxs]
        for row, user_id in enumerate(user_ids):
            user_idx = self._user_index.get(user_id)
            if user_idx is None:
                continue
            ratings = self._matrix[user_idx]
            rated = ratings > 0.0
            if not rated.any():
                continue
            # Boolean indexing copies, so clipping in place never touches
            # the shared similarity rows.
            similarities = similarity_rows[:, rated]
            similarities[similarities < 0.0] = 0.0
            weights = similarities.sum(axis=1)
            decidable = weights > 0.0
            values = np.full(len(positions), np.nan)
            if decidable.any():
                weighted = (similarities[decidable] * ratings[rated]).sum(axis=1)
                values[decidable] = np.minimum(
                    1.0, np.maximum(0.0, weighted / weights[decidable])
                )
            out[row, positions] = values
        return out

    def predict(self, user_id: str, item_key: str) -> Optional[float]:
        """Predicted rating in [0, 1], or None when undecidable.

        Undecidable: unknown user, or the user rated nothing that is
        similar to any known item.  An unknown item with a known user
        predicts from nothing and is also None.
        """
        user_idx = self._user_index.get(user_id)
        if user_idx is None:
            return None
        item_idx = self._item_index.get(item_key)
        if item_idx is None:
            return None
        ratings = self._matrix[user_idx]
        rated = ratings > 0.0
        if not rated.any():
            return None
        similarities = self._similarity[item_idx][rated].copy()
        similarities[similarities < 0.0] = 0.0
        weight = similarities.sum()
        if weight <= 0.0:
            return None
        value = float((similarities * ratings[rated]).sum() / weight)
        return min(1.0, max(0.0, value))

    def known_items(self) -> Sequence[str]:
        """Item keys the model has seen feedback for."""
        return list(self._items)


class RelatednessScorer:
    """The blended relatedness score (Section III.a).

    ``alpha`` weighs the semantic part; ``1 - alpha`` the collaborative
    part.  By default, items unknown to the collaborative model fall back to
    the semantic score alone (rather than being zeroed out), so cold-start
    items are never structurally suppressed; ``cold_start_fallback=False``
    scores undecidable predictions as 0 instead (used by the E4 ablation to
    isolate the pure collaborative signal).
    """

    def __init__(
        self,
        alpha: float = 0.6,
        feedback: FeedbackStore | None = None,
        schema: SchemaView | None = None,
        spread_decay: float = 0.5,
        spread_depth: int = 0,
        cold_start_fallback: bool = True,
    ) -> None:
        require_probability(alpha, "alpha")
        self._alpha = alpha
        self._model = CollaborativeModel(feedback) if feedback is not None else None
        # Spreading reads only the version's class graph, so that is what
        # the scorer keeps (and only when it spreads): holding the schema
        # view would pin the version's whole triple graph for as long as
        # the engine caches this scorer.
        self._class_graph = (
            class_graph(schema) if schema is not None and spread_depth > 0 else None
        )
        self._spread_decay = spread_decay
        self._spread_depth = spread_depth
        self._cold_start_fallback = cold_start_fallback
        # user_id -> (source profile, spread user).  The source profile is
        # kept for an identity check so replacing a user (same id, new
        # profile object) invalidates the cached spread instead of serving
        # the old interests forever.
        self._spread_cache: Dict[str, tuple] = {}

    def _effective_user(self, user: User) -> User:
        if self._class_graph is None:
            return user
        cached = self._spread_cache.get(user.user_id)
        if cached is None or cached[0] is not user.profile:
            spread_user = User(
                user_id=user.user_id,
                profile=_spread_over(
                    user.profile, self._class_graph, self._spread_decay, self._spread_depth
                ),
                name=user.name,
            )
            cached = (user.profile, spread_user)
            self._spread_cache[user.user_id] = cached
        return cached[1]

    def score(self, user: User, item: RecommendationItem) -> float:
        """Relatedness of ``item`` to ``user`` in [0, 1]."""
        semantic = semantic_relatedness(self._effective_user(user), item)
        if self._model is None:
            return semantic
        predicted = self._model.predict(user.user_id, item.key)
        if predicted is None:
            if self._cold_start_fallback:
                return semantic
            predicted = 0.0
        return self._alpha * semantic + (1.0 - self._alpha) * predicted

    def score_all(
        self, user: User, items: Sequence[RecommendationItem]
    ) -> Dict[str, float]:
        """Relatedness per item key."""
        return {item.key: self.score(user, item) for item in items}

    def score_batch(
        self, users: Sequence[User], items: Sequence[RecommendationItem]
    ) -> Dict[str, "np.ndarray"]:
        """Relatedness of every item for every user, in one vectorised pass.

        Returns ``{user_id: scores}`` with ``scores[i]`` the relatedness of
        ``items[i]`` (same value :meth:`score` would produce).  The item pool
        is interned once into a :class:`CandidatePool`, then scored by
        :meth:`score_rows`.
        """
        rows = self.score_rows(users, CandidatePool(items))
        return {user.user_id: row for user, row in zip(users, rows)}

    def score_rows(
        self, users: Sequence[User], pool: CandidatePool
    ) -> List["np.ndarray"]:
        """One relatedness row per user over the pool's positions.

        ``rows[u][i]`` is :meth:`score` of ``users[u]`` and ``pool.items[i]``.
        The pool's targets and families are already interned, so each
        user's profile becomes two small weight vectors gathered through
        the pool's ids: one profile sweep per user instead of one Python
        call per (user, item) pair.
        """
        if self._model is not None:
            predictions = self._model.predict_matrix([u.user_id for u in users], pool.keys)
        rows: List[np.ndarray] = []
        for row, user in enumerate(users):
            profile = self._effective_user(user).profile
            interest = np.fromiter(
                (min(1.0, profile.interest_in(t)) for t in pool.targets),
                dtype=float,
                count=len(pool.targets),
            )
            preference = np.fromiter(
                (min(1.0, profile.family_preference(f)) for f in pool.families),
                dtype=float,
                count=len(pool.families),
            )
            semantic = interest[pool.target_ids] * preference[pool.family_ids]
            if self._model is None:
                rows.append(semantic)
                continue
            predicted = predictions[row]
            undecidable = np.isnan(predicted)
            blended = self._alpha * semantic + (1.0 - self._alpha) * np.where(
                undecidable, 0.0, predicted
            )
            fallback = semantic if self._cold_start_fallback else self._alpha * semantic
            rows.append(np.where(undecidable, fallback, blended))
        return rows
