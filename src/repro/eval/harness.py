"""The experiment harness: run, check shape, print.

Each derived experiment is a module under
:mod:`repro.eval.experiments` exposing ``run(scale: float = 1.0) ->
ExperimentResult``.  An :class:`ExperimentResult` carries the printable
tables *and* machine-checkable ``shape_checks`` -- booleans asserting the
qualitative shape the paper's claim predicts (who wins, monotonicity,
crossovers).  The test suite asserts these checks; the benchmark harness
prints the tables.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Dict, List

from repro.eval.tables import TextTable

#: Registered experiment ids, in run order.
EXPERIMENT_IDS = (
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
    "e13",
)

_MODULES = {
    "e1": "repro.eval.experiments.e1_views",
    "e2": "repro.eval.experiments.e2_superiority",
    "e3": "repro.eval.experiments.e3_neighborhood",
    "e4": "repro.eval.experiments.e4_relatedness",
    "e5": "repro.eval.experiments.e5_diversity",
    "e6": "repro.eval.experiments.e6_group_diversity",
    "e7": "repro.eval.experiments.e7_fairness",
    "e8": "repro.eval.experiments.e8_anonymity",
    "e9": "repro.eval.experiments.e9_transparency",
    "e10": "repro.eval.experiments.e10_scalability",
    "e11": "repro.eval.experiments.e11_deltas",
    "e12": "repro.eval.experiments.e12_ablations",
    "e13": "repro.eval.experiments.e13_robustness",
}


@dataclass
class ExperimentResult:
    """Everything one experiment produces."""

    experiment_id: str
    title: str
    claim: str  # the paper sentence the experiment operationalises
    tables: List[TextTable] = field(default_factory=list)
    shape_checks: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""

    def passed(self) -> bool:
        """True when every shape check holds."""
        return all(self.shape_checks.values())

    def render(self) -> str:
        """Full printable report of the experiment."""
        parts = [
            f"== {self.experiment_id.upper()}: {self.title} ==",
            f"claim: {self.claim}",
            "",
        ]
        for table in self.tables:
            parts.append(table.render())
            parts.append("")
        if self.shape_checks:
            parts.append("shape checks:")
            for name, ok in sorted(self.shape_checks.items()):
                parts.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


def run_experiment(experiment_id: str, scale: float = 1.0) -> ExperimentResult:
    """Run one experiment by id (``scale`` shrinks/grows the workload)."""
    module_name = _MODULES.get(experiment_id)
    if module_name is None:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(EXPERIMENT_IDS)}"
        )
    module = importlib.import_module(module_name)
    result = module.run(scale=scale)
    if result.experiment_id != experiment_id:
        raise RuntimeError(
            f"module {module_name} returned id {result.experiment_id!r}, "
            f"expected {experiment_id!r}"
        )
    return result


def run_all(scale: float = 1.0) -> List[ExperimentResult]:
    """Run the whole suite in order."""
    return [run_experiment(eid, scale=scale) for eid in EXPERIMENT_IDS]
