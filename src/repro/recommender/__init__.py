"""The human-aware recommender (systems S12, S14, S15, S17).

Implements the paper's core contribution: recommending evolution measures
under the five Section III perspectives (relatedness, transparency,
diversity, fairness, anonymity).
"""

from repro.recommender.diversity import (
    DistanceTable,
    ItemDistance,
    coverage_select,
    family_coverage,
    intra_list_distance,
    max_min_select,
    mmr_select,
    novelty_select,
)
from repro.recommender.engine import DIVERSIFIERS, EngineConfig, RecommenderEngine
from repro.recommender.fairness import (
    STRATEGIES,
    aggregate_average,
    aggregate_least_misery,
    catalog_coverage,
    long_tail_exposure,
    mean_satisfaction,
    min_satisfaction,
    satisfaction_gini,
    satisfaction_vector,
    select_package,
)
from repro.recommender.items import (
    RecommendationItem,
    RecommendationPackage,
    ScoredItem,
)
from repro.recommender.notifications import (
    Notification,
    NotificationService,
    Watch,
)
from repro.recommender.ranking import (
    generate_candidates,
    rank_items,
    utility_scores,
    utility_scores_batch,
)
from repro.recommender.relatedness import (
    CollaborativeModel,
    RelatednessScorer,
    semantic_relatedness,
    spread_profile,
)
from repro.recommender.transparency import explain_item, explain_package

__all__ = [
    "DistanceTable",
    "ItemDistance",
    "coverage_select",
    "family_coverage",
    "intra_list_distance",
    "max_min_select",
    "mmr_select",
    "novelty_select",
    "DIVERSIFIERS",
    "EngineConfig",
    "RecommenderEngine",
    "STRATEGIES",
    "aggregate_average",
    "aggregate_least_misery",
    "catalog_coverage",
    "long_tail_exposure",
    "mean_satisfaction",
    "min_satisfaction",
    "satisfaction_gini",
    "satisfaction_vector",
    "select_package",
    "RecommendationItem",
    "RecommendationPackage",
    "ScoredItem",
    "Notification",
    "NotificationService",
    "Watch",
    "generate_candidates",
    "rank_items",
    "utility_scores",
    "utility_scores_batch",
    "CollaborativeModel",
    "RelatednessScorer",
    "semantic_relatedness",
    "spread_profile",
    "explain_item",
    "explain_package",
]
