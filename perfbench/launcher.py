"""Traced launcher: ``repro serve`` with span recorders around its layers.

Usage (what ``run.py --trace 1`` starts instead of ``python -m repro``)::

    PYTHONPATH=src python perfbench/launcher.py --spans FILE -- serve --kb DIR ...

Before handing ``argv`` to ``repro.cli.main`` the launcher wraps the public
entry points in :data:`TARGETS` by dotted name (``module:attribute.path``).
A target that no longer exists is reported as absent in the span file,
never as a crash, so the benchmark survives refactors it may not edit.
Spans stay in memory and are written once, when the server exits.

Span kinds:

``span``   call -> return, nested under the thread's open span.
``read``   call -> the returned future resolves (the future may resolve on
           another thread).
``submit`` call -> the returned future is done; also records which
           ``batch`` span resolved it (the future's callbacks run on the
           worker thread right after the batch returns).
``batch``  a ``span`` that worker-thread ``submit`` callbacks link to.
``fill``   a ``span`` recorded only for the first call per (engine, pair).
``count``  call count only (too hot for spans).
``mark``   records every counter's value at call time (the client calls
           ``GET /stats`` at the edges of the timed phase).
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: (layer name, kind, dotted names).  Every name is wrapped where it is
#: bound, so a call through any one of them is recorded exactly once.
TARGETS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("service.read", "read",
     ("repro.service.service:RecommendationService.recommend_cached_async",)),
    ("service.respcache.begin", "span", ("repro.service.respcache:ResponseCache.begin",)),
    ("service.admission.submit", "submit", ("repro.service.admission:AdmissionQueue.submit",)),
    ("recommender.engine.recommend_many", "batch",
     ("repro.recommender.engine:RecommenderEngine.recommend_many",)),
    ("recommender.engine.fill", "fill",
     ("repro.recommender.engine:RecommenderEngine.candidates",
      "repro.recommender.engine:RecommenderEngine.scorer")),
    ("measures.compute_all", "span", ("repro.measures.base:MeasureCatalog.compute_all",)),
    ("graphtools.betweenness", "span", ("repro.measures.structural:betweenness_artefact",)),
    ("recommender.relatedness.score_batch", "span",
     ("repro.recommender.relatedness:RelatednessScorer.score_batch",)),
    ("recommender.ranking.rank_items", "span",
     ("repro.recommender.engine:rank_items", "repro.recommender.ranking:rank_items")),
    ("recommender.diversity.mmr_select", "span",
     ("repro.recommender.engine:mmr_select", "repro.recommender.diversity:mmr_select")),
    ("recommender.diversity.distance_calls", "count",
     ("repro.recommender.diversity:ItemDistance.__call__",)),
    ("measures.structural.class_graph", "span",
     ("repro.recommender.engine:class_graph", "repro.measures.structural:class_graph")),
    ("recommender.transparency.explain", "span",
     ("repro.recommender.engine:explain_item", "repro.recommender.transparency:explain_item")),
    ("io.storage.package_to_dict", "span",
     ("repro.service.service:package_to_dict", "repro.io.storage:package_to_dict")),
    ("kb.ntriples.parse", "span",
     ("repro.service.http:parse_graph", "repro.kb.ntriples:parse_graph")),
    ("service.registry.commit", "span", ("repro.service.registry:Tenant.commit_changes",)),
    ("io.load_kb", "span", ("repro.cli:load_kb", "repro.io.storage:load_kb")),
    ("mark", "mark", ("repro.service.service:RecommendationService.stats",)),
]


class Recorder:
    """In-memory spans: ``(id, parent id, name, t0 ns, t1 ns, extra)``."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.marks: List[Tuple[int, Dict[str, int]]] = []
        self.counters: Dict[str, "itertools.count"] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._filled: set = set()
        self._fill_lock = threading.Lock()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def counter_values(self) -> Dict[str, int]:
        # repr(count(n)) == "count(n)": read without advancing the counter.
        return {name: int(repr(c)[6:-1]) for name, c in self.counters.items()}

    def wrap(self, name: str, kind: str, fn: Callable) -> Callable:
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter_ns
        local = self._local

        def enter():
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            return stack, sid, parent

        if kind == "count":
            counter = self.counters.setdefault(name, itertools.count())

            def wrapper(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)

        elif kind == "mark":

            def wrapper(*args, **kwargs):
                self.marks.append((clock(), self.counter_values()))
                return fn(*args, **kwargs)

        elif kind in ("read", "submit"):

            def wrapper(*args, **kwargs):
                stack, sid, parent = enter()
                t0 = clock()
                try:
                    future = fn(*args, **kwargs)
                finally:
                    stack.pop()

                def done(_future):
                    link = getattr(local, "last_batch", 0) if kind == "submit" else None
                    spans.append((sid, parent, name, t0, clock(), link))

                future.add_done_callback(done)
                return future

        elif kind == "fill":
            filled, lock = self._filled, self._fill_lock

            def wrapper(engine, context=None, *args, **kwargs):
                if context is None:
                    return fn(engine, context, *args, **kwargs)
                pair = f"{context.old.version_id}->{context.new.version_id}"
                key = (id(engine), fn.__name__, pair)
                with lock:
                    first = key not in filled
                    filled.add(key)
                if not first:
                    return fn(engine, context, *args, **kwargs)
                stack, sid, parent = enter()
                t0 = clock()
                try:
                    return fn(engine, context, *args, **kwargs)
                finally:
                    stack.pop()
                    spans.append((sid, parent, name, t0, clock(), pair))

        else:  # span, batch

            def wrapper(*args, **kwargs):
                stack, sid, parent = enter()
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans.append((sid, parent, name, t0, clock(), None))
                    if kind == "batch":
                        local.last_batch = sid

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def _resolve(dotted: str):
    """``module:attr.path`` -> ``(owner, attribute name, current value)``."""
    module_name, _, path = dotted.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def install(recorder: Recorder) -> Dict[str, Dict[str, List[str]]]:
    """Wrap every resolvable target; returns present/absent names per layer."""
    resolved, report = [], {}
    # Resolve (and so import) everything before patching anything, so a
    # module importing a name from another gets the original, not a wrapper.
    for name, kind, dotted_names in TARGETS:
        entry = report.setdefault(name, {"kind": kind, "present": [], "absent": []})
        for dotted in dotted_names:
            try:
                resolved.append((name, kind, dotted, *_resolve(dotted)))
            except (ImportError, AttributeError):
                entry["absent"].append(dotted)
    for name, kind, dotted, owner, attribute, value in resolved:
        if not callable(value):
            report[name]["absent"].append(dotted)
            continue
        setattr(owner, attribute, recorder.wrap(name, kind, value))
        report[name]["present"].append(dotted)
    return report


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="write spans here on exit")
    parser.add_argument("serve_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_argv = args.serve_argv
    if serve_argv[:1] == ["--"]:
        serve_argv = serve_argv[1:]
    recorder = Recorder()
    targets = install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        with open(args.spans, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "clock": "perf_counter_ns",
                    "targets": targets,
                    "spans": recorder.spans,
                    "marks": recorder.marks,
                    "counts": recorder.counter_values(),
                },
                out,
            )


if __name__ == "__main__":
    sys.exit(main())
