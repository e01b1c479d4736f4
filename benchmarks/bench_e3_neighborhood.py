"""E3 (F1). Neighbourhood change counts localise the changed area as evolution concentrates (Section II.b).

Regenerates the E3 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e3_neighborhood`.
"""


def test_e3_neighborhood(run_bench):
    run_bench("e3")
