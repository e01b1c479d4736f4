"""E11 (T5). High-level deltas compress low-level change descriptions across op mixes (Section I).

Regenerates the E11 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e11_deltas`.
"""


def test_e11_delta_compression(run_bench):
    run_bench("e11")
