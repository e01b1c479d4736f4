"""E5 (Figure 3): the relevance-diversity trade-off of the package selectors.

Claim (Section III.c): "the produced set of measures should cover all the
different needs of the human in question and not focus on a particular
aspect of evolution."

Workload: standard world; per-user utilities as in the engine; the MMR
lambda sweep 0 -> 1 plus the Max-Min and coverage selectors as ablations.
Reported (mean over users): package nDCG@k against planted relevance,
intra-list distance (ILD), and measure-family coverage.

Expected shape: relevance (nDCG) is monotonically non-decreasing in lambda
while ILD is non-increasing -- the classic trade-off -- and an intermediate
lambda keeps most of the relevance while covering more families than pure
relevance ranking.
"""

from __future__ import annotations

from typing import Dict

from repro.eval.experiments.common import class_items, make_world, relevance_by_key
from repro.eval.harness import ExperimentResult
from repro.eval.metrics import ndcg_at_k
from repro.eval.tables import TextTable
from repro.measures.catalog import default_catalog
from repro.measures.structural import class_graph
from repro.recommender.diversity import (
    ItemDistance,
    coverage_select,
    family_coverage,
    intra_list_distance,
    max_min_select,
    mmr_select,
)
from repro.recommender.items import ScoredItem
from repro.recommender.ranking import generate_candidates, utility_scores
from repro.recommender.relatedness import RelatednessScorer

K = 8


def run(scale: float = 1.0) -> ExperimentResult:
    """Run E5 (see module docstring)."""
    world = make_world(scale=scale, seed=404, hotspot_affinity=0.7)
    context = world.latest_context()
    candidates = class_items(
        generate_candidates(default_catalog(), context, per_measure=30)
    )
    scorer = RelatednessScorer(alpha=1.0, schema=context.new_schema, spread_depth=1)
    distance = ItemDistance(class_graph=class_graph(context.new_schema))
    distances = distance.table(candidates)  # shared by every selection below

    lambdas = [0.0, 0.25, 0.5, 0.75, 1.0]
    selectors: Dict[str, object] = {f"mmr l={lam}": lam for lam in lambdas}

    table = TextTable(
        title=f"E5: relevance vs. diversity at package size {K} (mean over users)",
        columns=["selector", "nDCG@8", "ILD", "family coverage"],
    )

    def evaluate(select) -> Dict[str, float]:
        ndcgs, ilds, coverages = [], [], []
        for user in world.users:
            utilities = utility_scores(user, candidates, scorer)
            scored = [
                ScoredItem(item=item, utility=utilities[item.key])
                for item in candidates
            ]
            package = select(scored)
            items = [s.item for s in package]
            truth = relevance_by_key(user, candidates)
            ndcgs.append(ndcg_at_k([i.key for i in items], truth, K))
            ilds.append(intra_list_distance(items, distance))
            coverages.append(family_coverage(items))
        n = len(world.users)
        return {
            "ndcg": sum(ndcgs) / n,
            "ild": sum(ilds) / n,
            "coverage": sum(coverages) / n,
        }

    sweep: Dict[float, Dict[str, float]] = {}
    for lam in lambdas:
        outcome = evaluate(lambda scored, lam=lam: mmr_select(scored, K, distances, lam))
        sweep[lam] = outcome
        table.add_row(f"mmr lambda={lam}", outcome["ndcg"], outcome["ild"], outcome["coverage"])

    maxmin = evaluate(lambda scored: max_min_select(scored, K, distances, lam=0.5))
    table.add_row("max-min lambda=0.5", maxmin["ndcg"], maxmin["ild"], maxmin["coverage"])
    coverage_based = evaluate(lambda scored: coverage_select(scored, K))
    table.add_row(
        "coverage (semantic)", coverage_based["ndcg"], coverage_based["ild"],
        coverage_based["coverage"],
    )

    ndcg_curve = [sweep[lam]["ndcg"] for lam in lambdas]
    ild_curve = [sweep[lam]["ild"] for lam in lambdas]
    tolerance = 0.02  # greedy MMR is not perfectly monotone; allow small wiggles

    return ExperimentResult(
        experiment_id="e5",
        title="Relevance-diversity trade-off (MMR sweep + selector ablation)",
        claim=(
            "'the produced set of measures should cover all the different "
            "needs of the human in question and not focus on a particular "
            "aspect of evolution' (Section III.c)"
        ),
        tables=[table],
        shape_checks={
            "relevance rises along the lambda sweep": ndcg_curve[-1]
            >= ndcg_curve[0] - tolerance
            and ndcg_curve[-1] >= max(ndcg_curve) - tolerance,
            "diversity falls along the lambda sweep": ild_curve[0]
            >= ild_curve[-1] - tolerance
            and ild_curve[0] >= max(ild_curve) - tolerance,
            "an interior lambda keeps >= 90% of peak relevance": sweep[0.75]["ndcg"]
            >= 0.9 * max(ndcg_curve),
            "interior lambda covers more families than pure relevance": sweep[0.5][
                "coverage"
            ]
            >= sweep[1.0]["coverage"],
            "coverage selector attains full family coverage": coverage_based["coverage"]
            == 1.0,
        },
        notes=f"candidates: {len(candidates)}; package size {K}; seed 404",
    )
