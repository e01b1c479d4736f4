"""The diversity perspective (Section III.c).

"The produced set of measures should cover all the different needs of the
human in question and not focus on a particular aspect of evolution."

The paper classifies diversification into content-based, novelty-based and
semantic-based; all three are implemented over one item-distance model:

* :class:`ItemDistance` -- distance of two items combines measure identity,
  measure family, and target distance in the class graph.
* :class:`DistanceTable` -- the same distances over one item pool, in
  integer-id form; the greedy selectors read every distance from one.
* :func:`mmr_select` -- content-based: greedy Maximal Marginal Relevance.
* :func:`max_min_select` -- content-based: greedy Max-Min dispersion
  (ablation alternative to MMR).
* :func:`novelty_select` -- novelty-based: MMR where the penalty also counts
  similarity to *previously seen* items.
* :func:`coverage_select` -- semantic-based: greedy coverage of "categories"
  (measure families and target regions).
* :func:`intra_list_distance` / :func:`family_coverage` -- the set-level
  metrics experiments E5/E6 report.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.graphtools.adjacency import UndirectedGraph
from repro.graphtools.traversal import bfs_distances
from repro.kb.terms import IRI
from repro.measures.base import MeasureFamily
from repro.recommender.items import RecommendationItem, ScoredItem
from repro.util.validation import require_probability


class ItemDistance:
    """Distance in [0, 1] between recommendation items.

    ``d = w_m * [different measure] + w_f * [different family] + w_t * target_distance``
    with weights summing to 1.  Target distance is the class-graph hop
    distance capped at ``horizon`` and normalised (identical targets 0,
    beyond-horizon or disconnected 1); without a class graph it is the
    0/1 indicator of different targets.
    """

    def __init__(
        self,
        class_graph: UndirectedGraph | None = None,
        measure_weight: float = 0.3,
        family_weight: float = 0.3,
        target_weight: float = 0.4,
        horizon: int = 3,
    ) -> None:
        total = measure_weight + family_weight + target_weight
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"distance weights must sum to 1, got {total}")
        for name, value in (
            ("measure_weight", measure_weight),
            ("family_weight", family_weight),
            ("target_weight", target_weight),
        ):
            require_probability(value, name)
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self._graph = class_graph
        self._wm = measure_weight
        self._wf = family_weight
        self._wt = target_weight
        self._horizon = horizon
        self._distance_cache: Dict[IRI, Dict[IRI, int]] = {}

    def _hops_from(self, source: IRI) -> Dict[IRI, int]:
        """Hop counts from ``source`` to the nodes nearer than the horizon."""
        hops = self._distance_cache.get(source)
        if hops is None:
            hops = bfs_distances(self._graph, source, cutoff=self._horizon - 1)
            self._distance_cache[source] = hops
        return hops

    def _target_distance(self, a: IRI, b: IRI) -> float:
        if a == b:
            return 0.0
        if self._graph is None or a not in self._graph or b not in self._graph:
            return 1.0
        hops = self._hops_from(a).get(b)
        if hops is None:  # at or beyond the horizon, or disconnected
            return 1.0
        return hops / self._horizon

    def __call__(self, a: RecommendationItem, b: RecommendationItem) -> float:
        """The distance ``d(a, b)`` in [0, 1]."""
        measure_term = 0.0 if a.measure_name == b.measure_name else 1.0
        family_term = 0.0 if a.family is b.family else 1.0
        target_term = self._target_distance(a.target, b.target)
        return self._wm * measure_term + self._wf * family_term + self._wt * target_term

    def table(self, items: Sequence[RecommendationItem]) -> "DistanceTable":
        """The :class:`DistanceTable` of ``items`` under this distance."""
        measures: Dict[str, int] = {}
        families: Dict[MeasureFamily, int] = {}
        targets: Dict[IRI, int] = {}
        ids = [
            (
                measures.setdefault(item.measure_name, len(measures)),
                families.setdefault(item.family, len(families)),
                targets.setdefault(item.target, len(targets)),
            )
            for item in items
        ]
        return DistanceTable(
            weights=(float(self._wm), float(self._wf), float(self._wt)),
            ids=np.array(ids, dtype=np.intp).reshape(len(ids), 3),
            target_terms=self._target_terms(list(targets)),
            rows={item.key: row for row, item in enumerate(items)},
        )

    def _target_terms(self, targets: Sequence[IRI]) -> np.ndarray:
        """``terms[a, b]`` = ``_target_distance(targets[a], targets[b])``.

        One horizon-capped BFS per distinct target in the class graph fills
        its row; every other entry keeps the scalar rule's 1.0 (0.0 on the
        diagonal), so each value equals the scalar one exactly.
        """
        index = {target: position for position, target in enumerate(targets)}
        terms = np.ones((len(targets), len(targets)))
        np.fill_diagonal(terms, 0.0)
        if self._graph is not None:
            for a, source in enumerate(targets):
                if source not in self._graph:
                    continue
                row = terms[a]
                for node, hops in self._hops_from(source).items():
                    b = index.get(node)
                    if b is not None:
                        row[b] = hops / self._horizon
        return terms


class DistanceTable:
    """The :class:`ItemDistance` distances among one item pool.

    Each item is reduced to three integer ids (measure name, family,
    target) and the pool's T distinct targets share one T×T table of
    target terms, so the table costs O(n + T²) memory, never n×n.
    :meth:`columns` evaluates ``d`` against one item for a whole pool in
    O(n) numpy work, with the scalar ``w_m*m + w_f*f + w_t*t`` expression,
    so every value is bit-identical to :meth:`ItemDistance.__call__`.

    Built by :meth:`ItemDistance.table`.  Read-only once built, so one
    table is safely shared by concurrent readers; the engine keeps one per
    version pair.
    """

    __slots__ = ("_weights", "_ids", "_target_terms", "_rows")

    def __init__(
        self,
        weights: Tuple[float, float, float],
        ids: np.ndarray,
        target_terms: np.ndarray,
        rows: Dict[str, int],
    ) -> None:
        self._weights = weights
        self._ids = ids  # (n, 3): measure, family, target id per row
        self._target_terms = target_terms
        self._rows = rows

    def rows(self, items: Sequence[RecommendationItem]) -> np.ndarray:
        """Each item's row in the table, looked up by item key.

        Keys must identify items, as they do in every candidate pool
        :func:`~repro.recommender.ranking.generate_candidates` builds.
        """
        try:
            return np.array([self._rows[item.key] for item in items], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"item {exc.args[0]!r} is not in this distance table") from None

    def columns(self, rows: np.ndarray) -> Callable[[int], np.ndarray]:
        """``column(row)``: ``d(item at r, item at row)`` for every ``r`` in ``rows``."""
        ids = self._ids
        measure, family, target = ids[rows, 0], ids[rows, 1], ids[rows, 2]
        terms = self._target_terms
        wm, wf, wt = self._weights

        def column(row: int) -> np.ndarray:
            m, f, t = ids[row]
            return wm * (measure != m) + wf * (family != f) + wt * terms[t, target]

        return column


def mmr_select(
    candidates: Sequence[ScoredItem],
    k: int,
    distance: ItemDistance | DistanceTable,
    lam: float = 0.7,
) -> List[ScoredItem]:
    """Greedy Maximal Marginal Relevance.

    Iteratively picks ``argmax lam * utility - (1 - lam) * max_similarity``
    to the already-selected set (similarity = 1 - distance).  ``lam = 1``
    reduces to pure relevance ranking; ``lam = 0`` to pure diversification.
    ``distance`` is an :class:`ItemDistance` or a :class:`DistanceTable`
    holding every candidate.
    """
    require_probability(lam, "lam")
    return _greedy_mmr(candidates, k, distance, lam, seen=())


def novelty_select(
    candidates: Sequence[ScoredItem],
    k: int,
    distance: ItemDistance | DistanceTable,
    seen: Sequence[RecommendationItem],
    lam: float = 0.7,
) -> List[ScoredItem]:
    """Novelty-based diversification: also avoid *previously seen* items.

    The MMR penalty takes the maximum similarity over both the selected set
    and the ``seen`` history, so the package prefers items that tell the
    human something new relative to past recommendations (the paper's
    "novelty-based" category).  A :class:`DistanceTable` must hold the
    ``seen`` items too.
    """
    require_probability(lam, "lam")
    return _greedy_mmr(candidates, k, distance, lam, seen=tuple(seen))


def _ranked_pool(candidates: Sequence[ScoredItem], k: int) -> List[ScoredItem]:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return sorted(candidates, key=lambda s: (-s.utility, s.item.key))


def _pool_columns(
    pool: Sequence[ScoredItem],
    seen: Sequence[RecommendationItem],
    distance: ItemDistance | DistanceTable,
) -> Tuple[Callable[[int], np.ndarray], np.ndarray, np.ndarray]:
    """``(column, pool rows, seen rows)`` over the pool, in pool order."""
    items = [scored.item for scored in pool]
    if isinstance(distance, DistanceTable):
        table, rows, seen_rows = distance, distance.rows(items), distance.rows(seen)
    else:  # an ad-hoc pool, whose keys may repeat: rows are positions
        table = distance.table(items + list(seen))
        rows = np.arange(len(items))
        seen_rows = np.arange(len(items), len(items) + len(seen))
    return table.columns(rows), rows, seen_rows


def _scan_pick(values: np.ndarray, remaining: List[int]) -> int:
    """Index into ``remaining`` of the first value beating the best by 1e-12.

    The greedy selectors' tie-break, scanned in pool order exactly as the
    scalar loops always have.
    """
    values = values.tolist()
    best_index = 0
    best_value = float("-inf")
    for index, position in enumerate(remaining):
        value = values[position]
        if value > best_value + 1e-12:
            best_value = value
            best_index = index
    return best_index


def _greedy_mmr(
    candidates: Sequence[ScoredItem],
    k: int,
    distance: ItemDistance | DistanceTable,
    lam: float,
    seen: Tuple[RecommendationItem, ...],
) -> List[ScoredItem]:
    pool = _ranked_pool(candidates, k)
    if not pool or k == 0:
        return []
    column, rows, seen_rows = _pool_columns(pool, seen, distance)
    utility = np.array([scored.utility for scored in pool], dtype=float)
    # Running max similarity to the seen history and the selected items;
    # the penalty is 0 while both are empty, as in the scalar definition.
    max_similarity = np.full(len(pool), -np.inf)
    for row in seen_rows:
        max_similarity = np.maximum(max_similarity, 1.0 - column(row))
    remaining = list(range(len(pool)))
    selected: List[ScoredItem] = []
    while True:
        penalty = max_similarity if selected or len(seen_rows) else 0.0
        position = remaining.pop(_scan_pick(lam * utility - (1.0 - lam) * penalty, remaining))
        selected.append(pool[position])
        if not remaining or len(selected) >= k:
            return selected
        max_similarity = np.maximum(max_similarity, 1.0 - column(rows[position]))


def max_min_select(
    candidates: Sequence[ScoredItem],
    k: int,
    distance: ItemDistance | DistanceTable,
    lam: float = 0.7,
) -> List[ScoredItem]:
    """Greedy Max-Min dispersion (the E5 ablation alternative to MMR).

    Starts from the highest-utility item, then repeatedly adds
    ``argmax lam * utility + (1 - lam) * min_distance`` to the selected set.
    """
    require_probability(lam, "lam")
    pool = _ranked_pool(candidates, k)
    if not pool or k == 0:
        return []
    selected = [pool[0]]
    if len(pool) == 1 or k == 1:
        return selected
    column, rows, _ = _pool_columns(pool, (), distance)
    utility = np.array([scored.utility for scored in pool], dtype=float)
    min_distance = column(rows[0])
    remaining = list(range(1, len(pool)))
    while True:
        values = lam * utility + (1.0 - lam) * min_distance
        position = remaining.pop(_scan_pick(values, remaining))
        selected.append(pool[position])
        if not remaining or len(selected) >= k:
            return selected
        min_distance = np.minimum(min_distance, column(rows[position]))


def coverage_select(candidates: Sequence[ScoredItem], k: int) -> List[ScoredItem]:
    """Semantic-based diversification: cover categories first.

    Categories are the measure families; within one round the selector picks
    the best unused item of each not-yet-covered family (by utility), then
    starts a new round.  This directly implements the paper's "semantic-
    based, selecting items that belong to different categories and topics".
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    pool = sorted(candidates, key=lambda s: (-s.utility, s.item.key))
    selected: List[ScoredItem] = []
    while pool and len(selected) < k:
        covered: Set[MeasureFamily] = set()
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


# -- set-level metrics -----------------------------------------------------------


def intra_list_distance(
    items: Sequence[RecommendationItem], distance: ItemDistance
) -> float:
    """Mean pairwise distance of the set (0.0 for fewer than two items)."""
    if len(items) < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            total += distance(a, b)
            pairs += 1
    return total / pairs


def family_coverage(items: Sequence[RecommendationItem]) -> float:
    """Fraction of the four Section II families present in the set."""
    if not items:
        return 0.0
    return len({item.family for item in items}) / len(MeasureFamily)
