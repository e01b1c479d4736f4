"""A tiny workflow engine with automatic provenance capture.

Section III.b: "usually workflow systems are employed.  They support the
automation of repetitive tasks, as well as they can capture complex analysis
processes at various levels of detail and systematically capture provenance
information for the derived data items."

A :class:`Workflow` is a sequence of named tasks.  Running a task through the
workflow records, in a :class:`~repro.provenance.store.ProvenanceStore`:

* one ``Activity`` per task run (with wall-clock start/end),
* ``used`` edges to every input entity,
* one output ``Entity`` with a ``wasGeneratedBy`` edge and
  ``wasDerivedFrom`` edges to the inputs,
* ``wasAssociatedWith`` the workflow's agent.

The recommendation engine uses this to make every recommendation package
fully explainable (E9 measures the overhead of exactly this capture).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.provenance.model import Activity, Agent, Entity, fresh_id
from repro.provenance.store import ProvenanceStore


@dataclass(frozen=True)
class TaskRun:
    """Outcome of one workflow task: the value plus its provenance handles."""

    value: Any
    output: Entity
    activity: Activity


#: The handles of every run of a non-capturing workflow: such a run mints
#: no id, reads no clock and records nothing, yet its ``output`` can still
#: be passed on as another task's input.
_UNCAPTURED_OUTPUT = Entity("entity:uncaptured", label="uncaptured")
_UNCAPTURED_ACTIVITY = Activity("activity:uncaptured", label="uncaptured")


class Workflow:
    """Runs callables as provenance-tracked tasks.

    ``store=None`` disables capture entirely (zero overhead), which is the
    control condition of experiment E9: its runs carry shared placeholder
    handles instead of fresh ones.
    """

    def __init__(
        self,
        name: str,
        store: ProvenanceStore | None = None,
        agent: Agent | None = None,
    ) -> None:
        if not name:
            raise ValueError("workflow name must be non-empty")
        self.name = name
        self._store = store
        self._agent = agent or Agent(agent_id=f"workflow:{name}", label=name)
        if self._store is not None:
            self._store.add_agent(self._agent)

    @property
    def capturing(self) -> bool:
        """True when provenance capture is enabled."""
        return self._store is not None

    @property
    def store(self) -> ProvenanceStore | None:
        """The provenance store (None when capture is disabled)."""
        return self._store

    def register_input(self, label: str, attributes: Dict[str, str] | None = None) -> Entity:
        """Register an external input (a version snapshot, a profile, ...)."""
        entity = Entity(fresh_id("entity"), label=label, attributes=attributes or {})
        if self._store is not None:
            self._store.add_entity(entity)
        return entity

    def run_task(
        self,
        label: str,
        func: Callable[..., Any],
        inputs: Sequence[Entity] = (),
        args: Tuple = (),
        kwargs: Dict[str, Any] | None = None,
        output_label: str | None = None,
    ) -> TaskRun:
        """Execute ``func(*args, **kwargs)`` as a tracked task.

        ``inputs`` are the provenance entities the task consumes; ``args`` /
        ``kwargs`` are the actual Python arguments (the two are decoupled so
        that large values need not be wrapped as entities).
        """
        kwargs = kwargs or {}
        store = self._store
        if store is None:
            return TaskRun(
                value=func(*args, **kwargs),
                output=_UNCAPTURED_OUTPUT,
                activity=_UNCAPTURED_ACTIVITY,
            )
        started = time.time()
        value = func(*args, **kwargs)
        ended = time.time()

        activity = Activity(
            fresh_id("activity"),
            label=f"{self.name}:{label}",
            started_at=started,
            ended_at=ended,
        )
        output = Entity(fresh_id("entity"), label=output_label or f"{label}:output")
        store.add_activity(activity)
        store.add_entity(output)
        store.was_associated_with(activity.activity_id, self._agent.agent_id)
        for entity in inputs:
            store.used(activity.activity_id, entity.entity_id)
            store.was_derived_from(output.entity_id, entity.entity_id)
        store.was_generated_by(output.entity_id, activity.activity_id, at_time=ended)
        return TaskRun(value=value, output=output, activity=activity)

    def explain(self, entity_id: str) -> List[str]:
        """Human-readable answers to the paper's three provenance questions."""
        if self._store is None:
            return ["provenance capture is disabled for this workflow"]
        lines: List[str] = []
        created = self._store.who_created(entity_id)
        if created is not None:
            agent, when = created
            when_str = f" at {when:.3f}" if when is not None else ""
            lines.append(f"created by {agent.label or agent.agent_id}{when_str}")
        for agent, when in self._store.who_modified(entity_id):
            when_str = f" at {when:.3f}" if when is not None else ""
            lines.append(f"modified by {agent.label or agent.agent_id}{when_str}")
        for activity in self._store.derivation_process(entity_id):
            lines.append(f"produced by process {activity.label or activity.activity_id}")
        return lines or [f"no provenance recorded for {entity_id!r}"]
