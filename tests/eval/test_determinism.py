"""Experiment determinism: the same invocation renders identical reports.

Benchmarks quote concrete numbers; those are only
trustworthy if a rerun reproduces them bit-for-bit (wall-clock timing
columns excluded, hence the subset of experiments checked).
"""

import pytest

from repro.eval.harness import run_experiment

# Deterministic experiments (no wall-clock columns in their tables).
_DETERMINISTIC = ["e1", "e2", "e3", "e5", "e6", "e7", "e8", "e11", "e12"]


@pytest.mark.parametrize("experiment_id", _DETERMINISTIC)
def test_rerun_renders_identically(experiment_id):
    first = run_experiment(experiment_id, scale=0.3)
    second = run_experiment(experiment_id, scale=0.3)
    assert first.render() == second.render()


def test_different_scales_differ():
    small = run_experiment("e1", scale=0.3)
    large = run_experiment("e1", scale=0.5)
    assert small.render() != large.render()
