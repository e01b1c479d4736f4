"""E8 (F5). The privacy-utility trade-off of k-anonymous evolution reports (Section III.e).

Regenerates the E8 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e8_anonymity`.
"""


def test_e8_anonymity(run_bench):
    run_bench("e8")
