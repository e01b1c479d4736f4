"""Unit tests for the provenance-capturing workflow engine."""

import pytest

from repro.provenance.model import Activity, Agent, Entity, RelationKind, fresh_id
from repro.provenance.store import ProvenanceStore
from repro.provenance.workflow import Workflow


class TestWorkflowCapture:
    def test_task_returns_value(self):
        wf = Workflow("wf", ProvenanceStore())
        run = wf.run_task("add", lambda a, b: a + b, args=(2, 3))
        assert run.value == 5

    def test_capture_records_activity_and_output(self):
        store = ProvenanceStore()
        wf = Workflow("wf", store)
        run = wf.run_task("square", lambda x: x * x, args=(4,))
        assert store.activity(run.activity.activity_id).label == "wf:square"
        assert store.entity(run.output.entity_id)

    def test_inputs_linked(self):
        store = ProvenanceStore()
        wf = Workflow("wf", store)
        source = wf.register_input("v1 snapshot")
        run = wf.run_task("measure", lambda: 42, inputs=[source])
        assert store.lineage(run.output.entity_id) == {source.entity_id}
        used = store.relations(RelationKind.USED)
        assert (run.activity.activity_id, source.entity_id) in [
            (r.source, r.target) for r in used
        ]

    def test_agent_associated(self):
        store = ProvenanceStore()
        wf = Workflow("wf", store, agent=Agent("me", kind="person"))
        run = wf.run_task("t", lambda: None)
        creator, _ = store.who_created(run.output.entity_id)
        assert creator.agent_id == "me"

    def test_activity_times_ordered(self):
        wf = Workflow("wf", ProvenanceStore())
        run = wf.run_task("t", lambda: sum(range(100)))
        assert run.activity.duration >= 0.0

    def test_task_exception_propagates(self):
        wf = Workflow("wf", ProvenanceStore())

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            wf.run_task("t", boom)


class TestCaptureDisabled:
    def test_no_store_means_no_capture(self):
        wf = Workflow("wf")  # store=None
        assert not wf.capturing
        run = wf.run_task("t", lambda: 7)
        assert run.value == 7
        assert wf.store is None

    def test_explain_without_store(self):
        wf = Workflow("wf")
        assert "disabled" in wf.explain("anything")[0]

    def test_uncaptured_runs_mint_no_ids(self):
        wf = Workflow("wf")
        before = fresh_id("probe")
        first = wf.run_task("t", lambda: 1)
        second = wf.run_task("u", lambda: 2, inputs=[first.output], args=())
        after = fresh_id("probe")
        assert int(after.rsplit("-", 1)[1]) == int(before.rsplit("-", 1)[1]) + 1
        assert (first.value, second.value) == (1, 2)
        # The handles stay usable objects, so outputs can feed later tasks.
        assert isinstance(second.output, Entity) and second.output.entity_id
        assert isinstance(second.activity, Activity) and second.activity.activity_id


class TestExplain:
    def test_explain_answers_three_questions(self):
        store = ProvenanceStore()
        wf = Workflow("pipeline", store, agent=Agent("engine", label="Engine"))
        source = wf.register_input("delta v1->v2")
        first = wf.run_task("compute", lambda: 1, inputs=[source])
        # A second task derives from the first output (a modification).
        wf.run_task("refine", lambda: 2, inputs=[first.output])
        lines = wf.explain(first.output.entity_id)
        text = "\n".join(lines)
        assert "created by Engine" in text
        assert "modified by Engine" in text
        assert "produced by process pipeline:compute" in text

    def test_explain_unknown_entity(self):
        store = ProvenanceStore()
        wf = Workflow("wf", store)
        from repro.provenance.store import ProvenanceError

        with pytest.raises(ProvenanceError):
            wf.explain("ghost")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Workflow("")
