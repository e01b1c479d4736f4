"""E6 (Table 3): merging per-user diverse lists is not group diversification.

Claim (Section III.c): "This problem becomes more difficult when we would
like to locate the evolving parts ... that a group of humans is interested
in.  This is a different aspect of diversity, because we cannot just
combine the diverse measures produced for the humans in the group, since in
this case we may construct a non diverse measures set."

Workload: groups pooled from several worlds (seeds 505-507) with high
hotspot affinity, so many groups are *homogeneous* -- members share tastes,
which is exactly when merging collapses (every member's diversified list
front-loads the same items).  Two constructions of a k-item group package:

* ``merge-per-user`` -- diversify per member (MMR), then merge the per-user
  lists round-robin, deduplicating, until k items;
* ``group-level`` -- MMR on the group's average utilities.

Reported per group: ILD and family coverage of both packages.  Expected
shape (matching the paper's *existential* phrasing "we may construct a non
diverse measures set"): some group is strictly less diverse under the merge
construction, and group-level diversification does not lose diversity on
average across the pooled groups.
"""

from __future__ import annotations

from typing import Dict, List

from repro.eval.experiments.common import class_items, make_world
from repro.eval.harness import ExperimentResult
from repro.eval.tables import TextTable
from repro.measures.catalog import default_catalog
from repro.measures.structural import class_graph
from repro.recommender.diversity import (
    ItemDistance,
    family_coverage,
    intra_list_distance,
    mmr_select,
)
from repro.recommender.items import RecommendationItem, ScoredItem
from repro.recommender.ranking import generate_candidates, utility_scores
from repro.recommender.relatedness import RelatednessScorer

K = 8
LAMBDA = 0.5


def run(scale: float = 1.0) -> ExperimentResult:
    """Run E6 (see module docstring)."""
    table = TextTable(
        title=f"E6: group package diversity, k={K} (per group)",
        columns=[
            "world",
            "group",
            "members",
            "ILD merge-per-user",
            "ILD group-level",
            "coverage merge",
            "coverage group",
        ],
    )

    merge_ilds: List[float] = []
    group_ilds: List[float] = []
    for seed in (505, 506, 507):
        world = make_world(scale=scale, seed=seed, hotspot_affinity=0.9, group_size=4)
        context = world.latest_context()
        candidates = class_items(
            generate_candidates(default_catalog(), context, per_measure=30)
        )
        scorer = RelatednessScorer(
            alpha=1.0, schema=context.new_schema, spread_depth=1
        )
        distance = ItemDistance(class_graph=class_graph(context.new_schema))
        _evaluate_world(
            world, seed, candidates, scorer, distance, table, merge_ilds, group_ilds
        )

    mean_merge = sum(merge_ilds) / len(merge_ilds)
    mean_group = sum(group_ilds) / len(group_ilds)
    summary = TextTable(
        title="E6 summary",
        columns=["construction", "mean ILD", "groups"],
    )
    summary.add_row("merge-per-user", mean_merge, len(merge_ilds))
    summary.add_row("group-level", mean_group, len(group_ilds))

    return ExperimentResult(
        experiment_id="e6",
        title="Group diversity cannot be composed from per-user diversity",
        claim=(
            "'we cannot just combine the diverse measures produced for the "
            "humans in the group, since in this case we may construct a non "
            "diverse measures set' (Section III.c)"
        ),
        tables=[table, summary],
        shape_checks={
            "group-level does not lose diversity on average": mean_group
            >= mean_merge - 0.02,
            "some merged package is strictly less diverse (the paper's 'may')": any(
                g > m + 1e-9 for g, m in zip(group_ilds, merge_ilds)
            ),
        },
        notes=f"{len(merge_ilds)} groups pooled over seeds 505-507, lambda={LAMBDA}",
    )


def _evaluate_world(
    world, seed, candidates, scorer, distance, table, merge_ilds, group_ilds
) -> None:
    distances = distance.table(candidates)  # shared by every selection below
    for group in world.groups:
        member_utilities: Dict[str, Dict[str, float]] = {
            member.user_id: utility_scores(member, candidates, scorer)
            for member in group
        }

        # Construction A: diversify per member, merge round-robin.
        per_member_lists = []
        for member in group:
            scored = [
                ScoredItem(item=item, utility=member_utilities[member.user_id][item.key])
                for item in candidates
            ]
            per_member_lists.append(mmr_select(scored, K, distances, LAMBDA))
        merged: List[RecommendationItem] = []
        seen_keys = set()
        rank = 0
        while len(merged) < K and rank < K:
            for member_list in per_member_lists:
                if rank < len(member_list):
                    item = member_list[rank].item
                    if item.key not in seen_keys:
                        seen_keys.add(item.key)
                        merged.append(item)
                        if len(merged) == K:
                            break
            rank += 1

        # Construction B: group-level MMR on average utilities.
        average = {
            item.key: sum(
                member_utilities[m.user_id][item.key] for m in group
            )
            / len(group)
            for item in candidates
        }
        group_scored = [
            ScoredItem(item=item, utility=average[item.key]) for item in candidates
        ]
        group_package = [s.item for s in mmr_select(group_scored, K, distances, LAMBDA)]

        ild_merge = intra_list_distance(merged, distance)
        ild_group = intra_list_distance(group_package, distance)
        merge_ilds.append(ild_merge)
        group_ilds.append(ild_group)
        table.add_row(
            seed,
            group.group_id,
            len(group),
            ild_merge,
            ild_group,
            family_coverage(merged),
            family_coverage(group_package),
        )
