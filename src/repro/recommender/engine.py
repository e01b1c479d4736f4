"""The recommendation engine: the paper's processing model, end to end.

``RecommenderEngine`` ties every perspective together:

1. *Measures* (Section II): the catalogue scores every class/property on the
   evolution context.
2. *Relatedness* (III.a): candidates are scored against the human's profile
   (and collaborative feedback when available).
3. *Diversity* (III.c): the package is diversified (MMR / Max-Min /
   coverage / novelty), not just truncated.
4. *Fairness* (III.d): group recommendations use group-aware selection.
5. *Transparency* (III.b): the pipeline runs through a provenance-capturing
   workflow and every item carries an explanation.
6. *Anonymity* (III.e): change reports derived from the same context can be
   released k-anonymously.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.kb.version import VersionedKnowledgeBase
from repro.measures.base import EvolutionContext, MeasureCatalog, MeasureResult
from repro.measures.catalog import default_catalog
from repro.measures.structural import class_graph
from repro.privacy.build import build_change_report
from repro.privacy.generalization import GeneralizationHierarchy
from repro.privacy.kanonymity import AnonymizedReport, anonymize_report
from repro.privacy.report import EvolutionReport
from repro.profiles.feedback import FeedbackStore
from repro.profiles.group import Group
from repro.profiles.user import User
from repro.provenance.store import ProvenanceStore
from repro.provenance.workflow import Workflow
from repro.recommender.diversity import (
    DistanceTable,
    ItemDistance,
    coverage_picks,
    max_min_picks,
    mmr_picks,
)
from repro.recommender.fairness import STRATEGIES, select_package
from repro.recommender.items import (
    RecommendationItem,
    RecommendationPackage,
    ScoredItem,
)
from repro.recommender.ranking import (
    CandidatePool,
    generate_candidates,
    rank_order,
    utility_scores_batch,
)
from repro.recommender.relatedness import RelatednessScorer
from repro.recommender.transparency import explain_item
from repro.util.validation import require_probability

DIVERSIFIERS = ("none", "mmr", "max_min", "coverage", "novelty")


@dataclass(frozen=True)
class EngineConfig:
    """All engine knobs in one place (the ablation surface of E4/E5/E7)."""

    k: int = 10
    per_measure_candidates: int | None = 25
    alpha: float = 0.6  # semantic vs collaborative relatedness blend
    diversifier: str = "mmr"
    mmr_lambda: float = 0.7
    group_strategy: str = "fairness_aware"
    fairness_beta: float = 0.5
    spread_depth: int = 0  # interest spreading hops (0 = profile as-is)
    spread_decay: float = 0.5
    #: How many version pairs keep warm per-context artefacts (measure
    #: results, candidate lists and pools, scorers, distance tables).  A long-lived
    #: serving engine sees an unbounded stream of pairs as writers commit;
    #: beyond this many the oldest pair's caches are evicted (recomputable,
    #: never wrong).  This bounds artefacts, not snapshots: the artefacts
    #: hold class graphs and scores, never a version's triple graph or
    #: schema view, so a cached pair does not keep its versions
    #: materialised (a serving tenant bounds those itself, see
    #: ``repro.service.registry.RESIDENT_VERSIONS``).
    max_cached_contexts: int = 8

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.max_cached_contexts < 1:
            raise ValueError(
                f"max_cached_contexts must be >= 1, got {self.max_cached_contexts}"
            )
        require_probability(self.alpha, "alpha")
        require_probability(self.mmr_lambda, "mmr_lambda")
        require_probability(self.fairness_beta, "fairness_beta")
        require_probability(self.spread_decay, "spread_decay")
        if self.diversifier not in DIVERSIFIERS:
            raise ValueError(
                f"diversifier must be one of {DIVERSIFIERS}, got {self.diversifier!r}"
            )
        if self.group_strategy not in STRATEGIES:
            raise ValueError(
                f"group_strategy must be one of {STRATEGIES}, got {self.group_strategy!r}"
            )


class _ContextArtefacts:
    """One context's cached pipeline artefacts, with their own fill lock.

    Per-entry locking means a cold fill for pair A never blocks a cold
    fill for an unrelated pair B -- only requests for the *same* context
    wait on (and then reuse) each other's computation, which is exactly
    the admission-batching story.  The lock is reentrant because
    ``candidates`` fills ``results`` under the same entry lock.
    """

    __slots__ = ("lock", "results", "candidates", "pool", "scorer", "distances")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.results: Mapping[str, MeasureResult] | None = None
        self.candidates: List[RecommendationItem] | None = None
        self.pool: CandidatePool | None = None
        self.scorer: RelatednessScorer | None = None
        self.distances: DistanceTable | None = None

    def fill(self, field: str, factory):
        """``getattr(self, field)``, computed by ``factory()`` exactly once.

        The engine-side sibling of :meth:`SchemaView.memoize`: one
        double-checked locked fill instead of a hand-copied idiom per
        artefact.  ``factory`` may itself fill other fields of the same
        entry (the lock is reentrant).
        """
        value = getattr(self, field)
        if value is None:
            with self.lock:
                value = getattr(self, field)
                if value is None:
                    value = factory()
                    setattr(self, field, value)
        return value


class RecommenderEngine:
    """Facade over the full human-aware recommendation pipeline.

    Engine instances are shareable across threads: every per-context
    artefact (measure results, candidate list and pool, scorer, distance
    table) lives in one bundle that fills under a per-context lock -- the first
    request for a cold pair computes, concurrent requests for the same
    pair wait and reuse, and unrelated pairs proceed in parallel.  The
    engine-wide lock only guards the (bounded) cache maps themselves; the
    scoring path reads immutable snapshots.
    """

    def __init__(
        self,
        kb: VersionedKnowledgeBase,
        catalog: MeasureCatalog | None = None,
        config: EngineConfig | None = None,
        feedback: FeedbackStore | None = None,
        provenance_store: ProvenanceStore | None = None,
    ) -> None:
        self._kb = kb
        self._catalog = catalog or default_catalog()
        self._config = config or EngineConfig()
        self._feedback = feedback
        self._workflow = Workflow("recommender", provenance_store)
        self._context_cache: EvolutionContext | None = None
        # Both maps are insertion-ordered and bounded by max_cached_contexts:
        # a serving engine sees an unbounded pair stream as writers commit,
        # so the oldest entries are evicted.  Contexts hash by identity, and
        # *every* context that acquires artefacts -- tracked pairs and
        # caller-constructed contexts alike -- goes through _artefacts, so
        # nothing can refill outside the bound.
        self._contexts_by_pair: "OrderedDict[Tuple[str, str], EvolutionContext]" = (
            OrderedDict()
        )
        self._artefacts: "OrderedDict[EvolutionContext, _ContextArtefacts]" = (
            OrderedDict()
        )
        # Guards the two cache maps only -- never held during computation.
        self._cache_lock = threading.RLock()

    # -- shared pipeline pieces ---------------------------------------------------

    @property
    def catalog(self) -> MeasureCatalog:
        """The measure catalogue being recommended from."""
        return self._catalog

    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
        return self._config

    @property
    def workflow(self) -> Workflow:
        """The provenance-capturing workflow (capture may be disabled)."""
        return self._workflow

    def context(self) -> EvolutionContext:
        """The default evolution context: the latest version pair."""
        if self._context_cache is None:
            with self._cache_lock:
                if self._context_cache is None:
                    versions = list(self._kb)
                    if len(versions) < 2:
                        raise ValueError(
                            "knowledge base needs at least two versions to recommend on"
                        )
                    self._context_cache = self.context_for(
                        versions[-2].version_id, versions[-1].version_id
                    )
        return self._context_cache

    def context_for(self, old_id: str, new_id: str) -> EvolutionContext:
        """The evolution context between two named versions (cached per pair).

        Contexts come from the KB's own :class:`~repro.kb.version.Version`
        objects, so adjacent pairs reuse the delta recorded at commit time
        and every derived artefact memoised on a version's schema view
        (betweenness, semantic centralities) is shared across all contexts
        touching that version.  A version whose class graph equals its
        parent's also reuses the parent's betweenness.
        """
        key = (old_id, new_id)
        context = self._contexts_by_pair.get(key)
        if context is None:
            with self._cache_lock:
                context = self._contexts_by_pair.get(key)
                if context is None:
                    context = EvolutionContext(
                        self._kb.version(old_id), self._kb.version(new_id)
                    )
                    self._contexts_by_pair[key] = context
                    self._evict_stale_contexts()
        return context

    def _artefacts_for(self, context: EvolutionContext) -> _ContextArtefacts:
        """The context's artefact bundle (created, and the caches bounded).

        Also the single chokepoint for eviction: every artefact fill passes
        through here, so re-requesting an evicted (or never-tracked)
        context re-registers a bounded entry instead of leaking one.
        """
        entry = self._artefacts.get(context)
        if entry is None:
            with self._cache_lock:
                entry = self._artefacts.get(context)
                if entry is None:
                    entry = _ContextArtefacts()
                    self._artefacts[context] = entry
                    self._evict_stale_contexts()
        return entry

    def _evict_stale_contexts(self) -> None:
        """Drop the oldest contexts' caches beyond the configured bound.

        Called under the cache lock.  Eviction only removes *this engine's*
        references: requests already holding an evicted context (or its
        artefact bundle) keep using it -- the context and its version
        snapshots stay alive and valid -- and a re-requested pair simply
        recomputes.  Bounded memory, never a wrong answer.  The
        default-context pair is pinned.
        """
        limit = self._config.max_cached_contexts
        while len(self._artefacts) > limit:
            victim = None
            for context in self._artefacts:
                if context is not self._context_cache:
                    victim = context
                    break
            if victim is None:  # only the pinned default context remains
                break
            del self._artefacts[victim]
            for key, context in list(self._contexts_by_pair.items()):
                if context is victim:
                    del self._contexts_by_pair[key]
        # Pair handles without artefacts yet (context_for without a fill)
        # are bounded the same way.
        while len(self._contexts_by_pair) > limit:
            for key, context in self._contexts_by_pair.items():
                if context is not self._context_cache:
                    break
            else:
                break
            del self._contexts_by_pair[key]

    def contexts(self) -> List[EvolutionContext]:
        """One cached context per adjacent version pair, in chain order."""
        return [
            self.context_for(old.version_id, new.version_id)
            for old, new in self._kb.pairs()
        ]

    def measure_results(
        self, context: EvolutionContext | None = None
    ) -> Mapping[str, MeasureResult]:
        """All measure results on the context (cached per context)."""
        context = context or self.context()

        def _compute() -> Mapping[str, MeasureResult]:
            run = self._workflow.run_task(
                "compute_measures",
                self._catalog.compute_all,
                args=(context,),
                output_label=(
                    f"measure results "
                    f"{context.old.version_id}->{context.new.version_id}"
                ),
            )
            return run.value

        return self._artefacts_for(context).fill("results", _compute)

    def candidates(
        self, context: EvolutionContext | None = None
    ) -> List[RecommendationItem]:
        """The candidate item pool (cached per context)."""
        context = context or self.context()

        def _generate() -> List[RecommendationItem]:
            results = self.measure_results(context)
            run = self._workflow.run_task(
                "generate_candidates",
                generate_candidates,
                args=(self._catalog, context),
                kwargs={
                    "per_measure": self._config.per_measure_candidates,
                    "results": results,
                },
                output_label="candidate items",
            )
            return run.value

        return self._artefacts_for(context).fill("candidates", _generate)

    def scorer(self, context: EvolutionContext | None = None) -> RelatednessScorer:
        """The relatedness scorer of one context (cached per context).

        Scorers are per-context because interest spreading runs over the
        *new* version's class graph: one engine-wide scorer would pin every
        pair to whichever version was scored first, serving stale spread
        profiles after a commit.
        """
        context = context or self.context()
        return self._artefacts_for(context).fill(
            "scorer",
            lambda: RelatednessScorer(
                alpha=self._config.alpha,
                feedback=self._feedback,
                schema=context.new_schema,
                spread_decay=self._config.spread_decay,
                spread_depth=self._config.spread_depth,
            ),
        )

    def _distances(self, context: EvolutionContext) -> DistanceTable:
        """The candidate pool's distance table (cached per context).

        One horizon-capped BFS per distinct candidate target on the new
        version's class graph, once per pair; each read's selector then
        costs O(k·n) numpy work instead of O(k²·n) scalar distance calls.
        """
        return self._artefacts_for(context).fill(
            "distances",
            lambda: ItemDistance(class_graph=class_graph(context.new_schema)).table(
                self.candidates(context)
            ),
        )

    def _pool(self, context: EvolutionContext | None = None) -> CandidatePool:
        """The candidate list in array form (cached per context).

        Read-only and shared by every read of the pair; its positions are
        the rows of the pair's distance table.
        """
        context = context or self.context()
        return self._artefacts_for(context).fill(
            "pool", lambda: CandidatePool(self.candidates(context))
        )

    # -- single-user recommendation -------------------------------------------------

    def recommend(
        self,
        user: User,
        k: int | None = None,
        context: EvolutionContext | None = None,
    ) -> RecommendationPackage:
        """Recommend a diversified, explained package for one human."""
        context = context or self.context()
        k = self._config.k if k is None else k
        pool = self._pool(context)
        scorer = self.scorer(context)
        # One batch pass yields the relatedness row both the utilities and
        # the explanations read.
        scores_run = self._workflow.run_task(
            "score_utilities",
            lambda: scorer.score_rows([user], pool)[0],
            output_label=f"utilities for {user.user_id}",
        )
        package = self._package(user, k, context, pool, scores_run.value)
        self._workflow.run_task(
            "assemble_package",
            lambda: package,
            inputs=[scores_run.output],
            output_label=f"package for {user.user_id}",
        )
        return package

    def _package(
        self,
        user: User,
        k: int,
        context: EvolutionContext,
        pool: CandidatePool,
        relatedness: np.ndarray,
    ) -> RecommendationPackage:
        """Rank, diversify and explain one user's package from their relatedness row.

        The single per-user reduction :meth:`recommend` and
        :meth:`recommend_many` share, so the batched path's bit-identity is
        this one piece of arithmetic.  It works over pool positions: the
        utilities are one vector product (the same IEEE product as
        ``evolution_score * relatedness`` per item), the ranking one
        ``lexsort``, and only the picked items become objects.
        """
        utility = pool.evolution * relatedness
        order = rank_order(utility, pool.key_rank)
        items = []
        explanations = {}
        for position in self._select(user, k, context, pool, utility, order):
            scored = ScoredItem(item=pool.items[position], utility=float(utility[position]))
            items.append(scored)
            explanations[scored.item.key] = explain_item(
                scored, user, self._catalog, float(relatedness[position])
            )
        return RecommendationPackage(
            items=tuple(items),
            audience=user.user_id,
            explanations=explanations,
            metadata={
                "context": f"{context.old.version_id}->{context.new.version_id}",
                "diversifier": self._config.diversifier,
            },
        )

    def _select(
        self,
        user: User,
        k: int,
        context: EvolutionContext,
        pool: CandidatePool,
        utility: np.ndarray,
        order: np.ndarray,
    ) -> List[int]:
        """The pool positions of one user's package, in pick order."""
        name = self._config.diversifier
        if name == "none":
            return order[:k].tolist()
        if name == "coverage":
            picks = coverage_picks(pool.family_ids[order].tolist(), k)
        else:
            table = self._distances(context)
            lam = self._config.mmr_lambda
            if name == "max_min":
                picks = max_min_picks(table, order, utility[order], k, lam)
            else:
                seen = ()
                if name == "novelty" and self._feedback is not None:
                    seen = table.held_rows(self._feedback.ratings_by_user(user.user_id))
                picks = mmr_picks(table, order, utility[order], seen, k, lam)
        return order[picks].tolist()

    def recommend_many(
        self,
        users: Sequence[User],
        k: int | None = None,
        context: EvolutionContext | None = None,
    ) -> Dict[str, RecommendationPackage]:
        """Recommend to many humans with one batched relatedness sweep.

        The serving layer's admission queue coalesces concurrent requests
        for the same (tenant, version pair) into one call here: every
        user's relatedness row is scored over the pair's shared
        :class:`CandidatePool` in a single
        :meth:`RelatednessScorer.score_rows` pass, then each user's
        package is ranked, diversified and explained individually.
        Packages are bit-identical to calling :meth:`recommend` once per
        user -- each row is computed independently, so batching changes
        cost, never values.
        """
        context = context or self.context()
        k = self._config.k if k is None else k
        users = list(users)
        pool = self._pool(context)
        scorer = self.scorer(context)
        scores_run = self._workflow.run_task(
            "score_utilities_batch",
            scorer.score_rows,
            args=(users, pool),
            output_label=f"batched utilities for {len(users)} users",
        )
        packages: Dict[str, RecommendationPackage] = {}
        for user, relatedness in zip(users, scores_run.value):
            packages[user.user_id] = self._package(user, k, context, pool, relatedness)
        return packages

    # -- group recommendation ----------------------------------------------------------

    def recommend_group(
        self,
        group: Group,
        k: int | None = None,
        strategy: str | None = None,
        context: EvolutionContext | None = None,
    ) -> RecommendationPackage:
        """Recommend one package for a whole group (Section III.d)."""
        context = context or self.context()
        k = self._config.k if k is None else k
        strategy = strategy or self._config.group_strategy
        candidates = self.candidates(context)
        scorer = self.scorer(context)

        # One batch pass scores all candidates for all members at once over
        # the interned profile vectors (same values as per-member
        # utility_scores, minus the per-(user, item) Python overhead).
        utilities = utility_scores_batch(list(group), candidates, scorer)
        selected = select_package(
            group,
            candidates,
            utilities,
            k,
            strategy=strategy,
            beta=self._config.fairness_beta,
        )
        explanations = {
            scored.item.key: (
                f"Group pick ({strategy}): "
                + "; ".join(
                    f"{member.user_id} utility "
                    f"{utilities[member.user_id].get(scored.item.key, 0.0):.2f}"
                    for member in group
                )
            )
            for scored in selected
        }
        return RecommendationPackage(
            items=tuple(selected),
            audience=group.group_id,
            explanations=explanations,
            metadata={
                "context": f"{context.old.version_id}->{context.new.version_id}",
                "strategy": strategy,
            },
        )

    # -- anonymised reporting --------------------------------------------------------

    def change_report(self, context: EvolutionContext | None = None) -> EvolutionReport:
        """The per-contributor change report of the context (Section III.e)."""
        context = context or self.context()
        return build_change_report(context)

    def anonymized_report(
        self,
        k: int,
        strategy: str = "generalize",
        context: EvolutionContext | None = None,
    ) -> AnonymizedReport:
        """A k-anonymous release of the change report."""
        context = context or self.context()
        report = self.change_report(context)
        hierarchy = GeneralizationHierarchy(context.new_schema)
        return anonymize_report(report, hierarchy, k, strategy=strategy)

    # -- transparency ------------------------------------------------------------------

    def explain(self, entity_id: str) -> List[str]:
        """Provenance answers for an entity produced by this engine."""
        return self._workflow.explain(entity_id)
