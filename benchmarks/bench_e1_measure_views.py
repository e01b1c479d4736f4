"""E1 (T1). Pairwise disagreement of the measure catalogue's rankings: the catalogue spans genuinely different views of evolution (Section II.d).

Regenerates the E1 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e1_views`.
"""


def test_e1_measure_views(run_bench):
    run_bench("e1")
