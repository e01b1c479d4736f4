"""E10 (F6). End-to-end recommendation latency vs knowledge-base size (Section I).

Regenerates the E10 table/series; the claim and its shape checks
are in :mod:`repro.eval.experiments.e10_scalability`.
"""


def test_e10_scalability(run_bench):
    run_bench("e10")
