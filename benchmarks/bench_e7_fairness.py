"""E7 (F4). Fairness-aware group selection vs naive aggregation across group sizes (Section III.d).

Regenerates the E7 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e7_fairness`.
"""


def test_e7_fairness(run_bench):
    run_bench("e7")
