"""E12 (T6). Design-knob ablations: graph-decay interest spreading under
sparse profile elicitation, and the fairness-aware beta frontier.

Regenerates the E12 tables; the claim and its shape checks
are in :mod:`repro.eval.experiments.e12_ablations`.
"""


def test_e12_ablations(run_bench):
    run_bench("e12")
