"""E6 (T3). Merging per-user diversified lists is not group-level diversification (Section III.c).

Regenerates the E6 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e6_group_diversity`.
"""


def test_e6_group_diversity(run_bench):
    run_bench("e6")
