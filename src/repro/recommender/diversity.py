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

Each selector ranks its :class:`ScoredItem` list and picks through one
positional core (:func:`mmr_picks`, :func:`max_min_picks`,
:func:`coverage_picks`) over the pool's table rows in rank order; the
engine's reads call the same cores directly on a pair's arrays.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.graphtools.adjacency import UndirectedGraph
from repro.graphtools.traversal import bfs_distances
from repro.kb.terms import IRI
from repro.measures.base import MeasureFamily
from repro.recommender.items import RecommendationItem, ScoredItem
from repro.recommender.ranking import rank_scored
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
        kinds: Dict[Tuple[str, MeasureFamily], int] = {}
        targets: Dict[IRI, int] = {}
        kind_ids = [kinds.setdefault((item.measure_name, item.family), len(kinds)) for item in items]
        target_ids = [targets.setdefault(item.target, len(targets)) for item in items]
        names = np.array([name for name, _ in kinds], dtype=object)
        families = np.array([family for _, family in kinds], dtype=object)
        # The scalar expression's own operations, per pair of kinds and per
        # pair of targets, so a kind term plus a target term is d(a, b)
        # bit for bit.
        kind_terms = float(self._wm) * (names[:, None] != names) + float(self._wf) * (
            families[:, None] != families
        )
        return DistanceTable(
            kind_ids=np.array(kind_ids, dtype=np.intp),
            kind_terms=kind_terms,
            target_ids=np.array(target_ids, dtype=np.intp),
            target_terms=float(self._wt) * self._target_terms(list(targets)),
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

    Each item is reduced to two integer ids: its kind (measure name and
    family) and its target.  The pool's K distinct kinds share one K×K
    table of ``w_m*m + w_f*f`` terms and its T distinct targets one T×T
    table of ``w_t*t`` terms, so the table costs O(n + K² + T²) memory,
    never n×n.  :meth:`columns` evaluates ``d`` against one item for a
    whole pool as one gather from each table and one addition: the
    scalar ``w_m*m + w_f*f + w_t*t`` expression, operation for operation,
    so every value is bit-identical to :meth:`ItemDistance.__call__`.

    Built by :meth:`ItemDistance.table`.  Read-only once built, so one
    table is safely shared by concurrent readers; the engine keeps one per
    version pair.
    """

    __slots__ = ("_kind_ids", "_kind_terms", "_target_ids", "_target_terms", "_rows")

    def __init__(
        self,
        kind_ids: np.ndarray,
        kind_terms: np.ndarray,
        target_ids: np.ndarray,
        target_terms: np.ndarray,
        rows: Dict[str, int],
    ) -> None:
        self._kind_ids = kind_ids
        self._kind_terms = kind_terms
        self._target_ids = target_ids
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

    def held_rows(self, keys: Iterable[str]) -> np.ndarray:
        """The rows of those ``keys`` the table holds, in the order given."""
        rows = [self._rows.get(key) for key in keys]
        return np.array([row for row in rows if row is not None], dtype=np.intp)

    def columns(self, rows: np.ndarray) -> Callable[[int], np.ndarray]:
        """``column(row)``: ``d(item at r, item at row)`` for every ``r`` in ``rows``."""
        kind_ids, kind_terms = self._kind_ids, self._kind_terms
        target_ids, target_terms = self._target_ids, self._target_terms
        kinds, targets = kind_ids[rows], target_ids[rows]

        def column(row: int) -> np.ndarray:
            return kind_terms[kind_ids[row]].take(kinds) + target_terms[target_ids[row]].take(
                targets
            )

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
    return rank_scored(candidates)


def _pool_table(
    pool: Sequence[ScoredItem],
    seen: Sequence[RecommendationItem],
    distance: ItemDistance | DistanceTable,
) -> Tuple[DistanceTable, np.ndarray, np.ndarray, np.ndarray]:
    """``(table, pool rows, pool utilities, seen rows)``, in pool order."""
    items = [scored.item for scored in pool]
    utility = np.array([scored.utility for scored in pool], dtype=float)
    if isinstance(distance, DistanceTable):
        return distance, distance.rows(items), utility, distance.rows(seen)
    # An ad-hoc pool, whose keys may repeat: rows are positions.
    table = distance.table(items + list(seen))
    return table, np.arange(len(items)), utility, np.arange(len(items), len(items) + len(seen))


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
    return [pool[i] for i in mmr_picks(*_pool_table(pool, seen, distance), k, lam)]


def _scan_pick(values: np.ndarray, live: np.ndarray) -> int:
    """Position of the first live value that beats the best so far by 1e-12.

    The greedy selectors' tie rule, scanned in rank order.  The first
    maximum is that pick unless an earlier live value lies within 1e-12
    of it (the largest earlier value is the one to check); only then is
    the scan replayed.
    """
    masked = np.where(live, values, -np.inf)
    pick = int(masked.argmax())
    if pick and not masked[:pick].max() + 1e-12 < masked[pick]:
        values = values.tolist()
        best_value = float("-inf")
        for position in np.flatnonzero(live).tolist():
            if values[position] > best_value + 1e-12:
                best_value = values[position]
                pick = position
    return pick


def mmr_picks(
    table: DistanceTable,
    rows: np.ndarray,
    utility: np.ndarray,
    seen_rows: Sequence[int],
    k: int,
    lam: float,
) -> List[int]:
    """Greedy MMR (or novelty) picks over a ranked pool, as indices into it.

    ``rows`` are the pool's table rows in rank order and ``utility`` their
    utilities; ``seen_rows`` are table rows whose similarity also counts
    against an item.  :func:`mmr_select`, :func:`novelty_select` and the
    engine's reads all pick through this one loop.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not len(rows) or k == 0:
        return []
    column = table.columns(rows)
    # Running max similarity to the seen history and the selected items;
    # the penalty is 0 while both are empty, as in the scalar definition.
    max_similarity = np.full(len(rows), -np.inf)
    for row in seen_rows:
        max_similarity = np.maximum(max_similarity, 1.0 - column(row))
    relevance = lam * utility
    live = np.ones(len(rows), dtype=bool)
    picks: List[int] = []
    while True:
        penalty = max_similarity if picks or len(seen_rows) else 0.0
        pick = _scan_pick(relevance - (1.0 - lam) * penalty, live)
        picks.append(pick)
        live[pick] = False
        if len(picks) == min(k, len(rows)):
            return picks
        max_similarity = np.maximum(max_similarity, 1.0 - column(rows[pick]))


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
    if len(pool) == 1 or k == 1:
        return pool[:1]
    table, rows, utility, _ = _pool_table(pool, (), distance)
    return [pool[i] for i in max_min_picks(table, rows, utility, k, lam)]


def max_min_picks(
    table: DistanceTable, rows: np.ndarray, utility: np.ndarray, k: int, lam: float
) -> List[int]:
    """Greedy Max-Min picks over a ranked pool, as indices into it (see :func:`mmr_picks`)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not len(rows) or k == 0:
        return []
    picks = [0]
    if len(rows) == 1 or k == 1:
        return picks
    column = table.columns(rows)
    min_distance = column(rows[0])
    relevance = lam * utility
    live = np.ones(len(rows), dtype=bool)
    live[0] = False
    while True:
        pick = _scan_pick(relevance + (1.0 - lam) * min_distance, live)
        picks.append(pick)
        live[pick] = False
        if len(picks) == min(k, len(rows)):
            return picks
        min_distance = np.minimum(min_distance, column(rows[pick]))


def coverage_select(candidates: Sequence[ScoredItem], k: int) -> List[ScoredItem]:
    """Semantic-based diversification: cover categories first.

    Categories are the measure families; within one round the selector picks
    the best unused item of each not-yet-covered family (by utility), then
    starts a new round.  This directly implements the paper's "semantic-
    based, selecting items that belong to different categories and topics".
    """
    pool = _ranked_pool(candidates, k)
    return [pool[i] for i in coverage_picks([s.item.family for s in pool], k)]


def coverage_picks(families: Sequence[Hashable], k: int) -> List[int]:
    """Coverage picks over a ranked pool's families, as indices into it."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    remaining = list(range(len(families)))
    picks: List[int] = []
    while remaining and len(picks) < k:
        covered: Set[Hashable] = set()
        passed = []
        for index in remaining:
            if len(picks) < k and families[index] not in covered:
                covered.add(families[index])
                picks.append(index)
            else:
                passed.append(index)
        remaining = passed
    return picks


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
