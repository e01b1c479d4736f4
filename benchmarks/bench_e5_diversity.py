"""E5 (F3). The relevance-diversity trade-off of MMR/Max-Min/coverage package selection (Section III.c).

Regenerates the E5 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e5_diversity`.
"""


def test_e5_diversity(run_bench):
    run_bench("e5")
