"""Shared infrastructure for the benchmark suite.

Each ``bench_e*.py`` regenerates one derived table/figure (one module of
:mod:`repro.eval.experiments`): it times the experiment via pytest-benchmark, prints the
experiment's tables (the rows the reproduction reports), and asserts the
claim-level shape checks.

The workload scale is 0.5 by default so the whole suite stays in the
minutes range; set ``REPRO_BENCH_SCALE=1.0`` for full-scale runs.
"""

from __future__ import annotations

import os

import pytest

from repro.eval.harness import ExperimentResult, run_experiment


def bench_scale() -> float:
    """The workload scale for benchmark runs (env-overridable)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


@pytest.fixture
def run_bench(benchmark):
    """Run one experiment under the benchmark timer; print and verify it."""

    def _run(experiment_id: str) -> ExperimentResult:
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"scale": bench_scale()},
            rounds=1,
            iterations=1,
        )
        print()
        print(result.render())
        failed = [name for name, ok in result.shape_checks.items() if not ok]
        assert not failed, f"{experiment_id} failed shape checks: {failed}"
        return result

    return _run
