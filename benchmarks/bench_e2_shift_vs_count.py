"""E2 (T2). Importance-shift measures recover semantically affected classes that raw change counting misranks (Section II.d).

Regenerates the E2 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e2_superiority`.
"""


def test_e2_shift_vs_count(run_bench):
    run_bench("e2")
