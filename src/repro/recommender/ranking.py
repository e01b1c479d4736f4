"""Candidate generation and relevance ranking.

The engine's pipeline starts here: every measure in the catalogue scores its
targets on the evolution context; each (measure, target) pair with a
non-zero normalised score becomes a candidate
:class:`~repro.recommender.items.RecommendationItem`.  A candidate's
*utility* for a user is::

    utility(u, item) = evolution_score(item) * relatedness(u, item)

-- an item is only worth recommending when its part of the KB both changed
(the measure says so) and matters to the human (relatedness says so).  Both
factors are in [0, 1], so utilities are too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence

import numpy as np

from repro.kb.terms import IRI
from repro.measures.base import EvolutionContext, MeasureCatalog, MeasureFamily, MeasureResult
from repro.profiles.user import User
from repro.recommender.items import RecommendationItem, ScoredItem

if TYPE_CHECKING:  # relatedness scores over CandidatePool, so it imports this module
    from repro.recommender.relatedness import RelatednessScorer


def generate_candidates(
    catalog: MeasureCatalog,
    context: EvolutionContext,
    per_measure: int | None = None,
    results: Mapping[str, MeasureResult] | None = None,
) -> List[RecommendationItem]:
    """Build the candidate item pool from a measure catalogue.

    ``per_measure`` caps how many top targets each measure contributes
    (None = every non-zero target).  ``results`` lets callers reuse
    already-computed measure results (the engine caches them per context).
    """
    if per_measure is not None and per_measure < 1:
        raise ValueError(f"per_measure must be >= 1 or None, got {per_measure}")
    if results is None:
        results = catalog.compute_all(context)

    candidates: List[RecommendationItem] = []
    for name in sorted(results):
        measure = catalog.get(name)
        normalised = results[name].normalized()
        pairs = normalised.top(per_measure if per_measure is not None else len(normalised))
        for target, score in pairs:
            if score <= 0.0:
                continue
            candidates.append(
                RecommendationItem(
                    measure_name=name,
                    family=measure.family,
                    target_kind=measure.target_kind,
                    target=target,
                    evolution_score=score,
                )
            )
    return candidates


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def key_ranks(keys: Sequence[str]) -> np.ndarray:
    """Each key's rank in sorted key order (a repeated key ranks in input order)."""
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return ranks


class CandidatePool:
    """A candidate list in array form, for reads that work over positions.

    Nothing here depends on the user, so the engine builds one pool per
    version pair, next to the candidate list it comes from, and every read
    shares it.  Position ``i`` is ``items[i]``, which is also row ``i`` of
    the pair's :class:`~repro.recommender.diversity.DistanceTable` (built
    from the same list).  The arrays are read-only, so concurrent readers
    cannot disturb one another.
    """

    __slots__ = (
        "items", "keys", "evolution", "targets", "families", "target_ids",
        "family_ids", "key_rank",
    )

    def __init__(self, items: Sequence[RecommendationItem]) -> None:
        self.items = tuple(items)
        self.keys = tuple(item.key for item in self.items)
        targets: Dict[IRI, int] = {}
        families: Dict[MeasureFamily, int] = {}
        target_ids = [targets.setdefault(item.target, len(targets)) for item in self.items]
        family_ids = [families.setdefault(item.family, len(families)) for item in self.items]
        #: The distinct targets and families, in order of first appearance;
        #: ``target_ids``/``family_ids`` index them per position.
        self.targets = tuple(targets)
        self.families = tuple(families)
        self.target_ids = _read_only(np.array(target_ids, dtype=np.intp))
        self.family_ids = _read_only(np.array(family_ids, dtype=np.intp))
        self.evolution = _read_only(
            np.array([item.evolution_score for item in self.items], dtype=float)
        )
        self.key_rank = _read_only(key_ranks(self.keys))


def rank_order(utility: np.ndarray, key_rank: np.ndarray) -> np.ndarray:
    """Positions by decreasing utility, equal utilities in key order.

    The order of sorting by ``(-utility, key)``: ``lexsort`` sorts by its
    last key first and is stable.
    """
    return np.lexsort((key_rank, -utility))


def rank_scored(scored: Sequence[ScoredItem]) -> List[ScoredItem]:
    """``scored`` by decreasing utility, ties broken by item key."""
    order = rank_order(
        np.array([s.utility for s in scored], dtype=float),
        key_ranks([s.item.key for s in scored]),
    )
    return [scored[i] for i in order.tolist()]


def utility_scores(
    user: User,
    candidates: Sequence[RecommendationItem],
    scorer: RelatednessScorer,
) -> Dict[str, float]:
    """``utility(u, item)`` per item key (see module docstring)."""
    return {
        item.key: item.evolution_score * scorer.score(user, item)
        for item in candidates
    }


def utility_scores_batch(
    users: Sequence[User],
    candidates: Sequence[RecommendationItem],
    scorer: RelatednessScorer,
) -> Dict[str, Dict[str, float]]:
    """``utility(u, item)`` for every user and item in one vectorised pass.

    Returns ``{user_id: {item_key: utility}}`` with the same values
    :func:`utility_scores` computes per member; the engine's group and
    multi-user paths use this so relatedness scoring sweeps the interned
    candidate pool once per user instead of once per (user, item) pair.
    """
    relatedness = scorer.score_batch(users, candidates)
    keys = [item.key for item in candidates]
    return {
        user.user_id: {
            key: float(item.evolution_score * related)
            for key, item, related in zip(keys, candidates, relatedness[user.user_id])
        }
        for user in users
    }


def rank_items(
    candidates: Sequence[RecommendationItem],
    utilities: Mapping[str, float],
    k: int | None = None,
) -> List[ScoredItem]:
    """Candidates by decreasing utility (deterministic tie-break by key)."""
    scored = rank_scored(
        [ScoredItem(item=item, utility=utilities.get(item.key, 0.0)) for item in candidates]
    )
    return scored if k is None else scored[:k]
