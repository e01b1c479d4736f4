"""E9 (T4). Provenance answerability and capture overhead of the tracked pipeline (Section III.b).

Regenerates the E9 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e9_transparency`.
"""


def test_e9_transparency(run_bench):
    run_bench("e9")
