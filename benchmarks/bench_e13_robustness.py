"""E13 (T7). Seed robustness: the headline relatedness / fairness / hotspot
effects re-measured on five fresh worlds each, with sign-consistency checks.

Regenerates the E13 tables; the claim and its shape checks
are in :mod:`repro.eval.experiments.e13_robustness`.
"""


def test_e13_robustness(run_bench):
    run_bench("e13")
