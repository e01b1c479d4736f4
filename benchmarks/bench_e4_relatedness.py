"""E4 (F2). Relatedness ranking vs random/popularity baselines with the semantic/collaborative alpha ablation (Section III.a).

Regenerates the E4 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e4_relatedness`.
"""


def test_e4_relatedness(run_bench):
    run_bench("e4")
