"""E12 (Table 6): ablations of the engine's design knobs.

Two design knobs keep a fixed value in the other experiments: the
graph-decay interest-spreading of the relatedness scorer, and the
``beta`` blend of the fairness-aware group selector.  This experiment
sweeps both.

Spreading ablation
    Real interest elicitation is sparse: a curator names a couple of
    classes, not their full latent interest surface.  We simulate this by
    *truncating* each synthetic user's profile to its top-2 classes while
    keeping the full profile as ground truth, then score rankings produced
    with ``spread_depth`` in {0, 1, 2} x ``spread_decay`` in {0.3, 0.7}.
    Expected shape: spreading (depth >= 1) recovers latent interests and
    beats the unspread profile on nDCG.

Fairness beta sweep
    ``beta`` trades mean group utility (beta = 1) against the least
    satisfied member (beta = 0).  Expected shape: min-satisfaction falls
    and mean satisfaction rises monotonically (within tolerance) along the
    sweep -- the knob actually spans the frontier.
"""

from __future__ import annotations

from typing import Dict, List

from repro.eval.experiments.common import class_items, make_world, relevance_by_key
from repro.eval.harness import ExperimentResult
from repro.eval.metrics import ndcg_at_k
from repro.eval.tables import TextTable
from repro.measures.catalog import default_catalog
from repro.profiles.group import Group
from repro.profiles.user import InterestProfile, User
from repro.recommender.fairness import (
    mean_satisfaction,
    min_satisfaction,
    select_package,
)
from repro.recommender.ranking import generate_candidates, utility_scores
from repro.recommender.relatedness import RelatednessScorer

K = 10


def _truncated(user: User, keep: int = 2) -> User:
    """The sparse-elicitation version of a user: top-``keep`` classes only."""
    top = user.profile.top_classes(keep)
    return User(
        user_id=user.user_id,
        profile=InterestProfile(
            class_weights={cls: user.profile.interest_in(cls) for cls in top},
            family_weights=dict(user.profile.family_weights),
        ),
        name=user.name,
    )


def run(scale: float = 1.0) -> ExperimentResult:
    """Run E12 (see module docstring)."""
    world = make_world(scale=scale, seed=1212, hotspot_affinity=0.6, n_users=16)
    context = world.latest_context()
    candidates = class_items(
        generate_candidates(default_catalog(), context, per_measure=30)
    )

    # --- spreading ablation -------------------------------------------------
    spread_table = TextTable(
        title=f"E12a: interest spreading under sparse elicitation (mean nDCG@{K})",
        columns=["spread depth", "decay", "nDCG@10"],
    )
    ndcg_by_config: Dict[tuple, float] = {}
    configs = [(0, 0.5), (1, 0.3), (1, 0.7), (2, 0.3), (2, 0.7)]
    for depth, decay in configs:
        scorer = RelatednessScorer(
            alpha=1.0,
            schema=context.new_schema,
            spread_depth=depth,
            spread_decay=decay,
        )
        ndcgs: List[float] = []
        for user in world.users:
            sparse = _truncated(user)
            truth = relevance_by_key(user, candidates)  # full latent profile
            scores = scorer.score_all(sparse, candidates)
            ranking = [
                key for key, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
            ]
            ndcgs.append(ndcg_at_k(ranking, truth, K))
        mean_ndcg = sum(ndcgs) / len(ndcgs)
        ndcg_by_config[(depth, decay)] = mean_ndcg
        spread_table.add_row(depth, decay, mean_ndcg)

    no_spread = ndcg_by_config[(0, 0.5)]
    best_spread = max(v for (d, _), v in ndcg_by_config.items() if d > 0)

    # --- fairness beta sweep --------------------------------------------------
    beta_table = TextTable(
        title="E12b: fairness-aware beta sweep (size-4 groups, mean over groups)",
        columns=["beta", "min satisfaction", "mean satisfaction"],
    )
    scorer = RelatednessScorer(alpha=1.0, schema=context.new_schema, spread_depth=1)
    utilities_all = {
        user.user_id: utility_scores(user, candidates, scorer) for user in world.users
    }
    groups = [
        Group(f"g{i}", tuple(world.users[i * 4 : (i + 1) * 4]))
        for i in range(len(world.users) // 4)
    ]
    betas = [0.0, 0.25, 0.5, 0.75, 1.0]
    min_curve: List[float] = []
    mean_curve: List[float] = []
    for beta in betas:
        mins: List[float] = []
        means: List[float] = []
        for group in groups:
            utilities = {u.user_id: utilities_all[u.user_id] for u in group}
            package = select_package(
                group, candidates, utilities, 8, strategy="fairness_aware", beta=beta
            )
            mins.append(min_satisfaction(group, package, utilities))
            means.append(mean_satisfaction(group, package, utilities))
        min_curve.append(sum(mins) / len(mins))
        mean_curve.append(sum(means) / len(means))
        beta_table.add_row(beta, min_curve[-1], mean_curve[-1])

    tolerance = 0.01
    return ExperimentResult(
        experiment_id="e12",
        title="Design-knob ablations: interest spreading and fairness beta",
        claim=(
            "design choices the other experiments fix: graph-decay "
            "interest propagation for relatedness (III.a) and the package "
            "fairness/relevance blend (III.d)"
        ),
        tables=[spread_table, beta_table],
        shape_checks={
            "spreading recovers latent interests (depth>=1 beats depth 0)": (
                best_spread > no_spread
            ),
            "min-satisfaction weakly falls as beta -> 1": min_curve[-1]
            <= min_curve[0] + tolerance
            and min(min_curve) >= min_curve[-1] - tolerance,
            "mean satisfaction weakly rises as beta -> 1": mean_curve[-1]
            >= mean_curve[0] - tolerance
            and max(mean_curve) <= mean_curve[-1] + tolerance,
            "the sweep spans a real frontier (endpoints differ)": (
                abs(min_curve[0] - min_curve[-1]) > 1e-6
                or abs(mean_curve[0] - mean_curve[-1]) > 1e-6
            ),
        },
        notes="16 users; profiles truncated to top-2 classes for E12a; seed 1212",
    )
