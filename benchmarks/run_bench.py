"""Standalone substrate benchmark harness.

Runs the substrate hot-path benchmarks (the same workloads as
``bench_substrate.py``, without the pytest-benchmark dependency) and writes
a machine-readable ``BENCH_substrate.json`` with per-benchmark mean/stddev
timings, so successive PRs have a perf trajectory to compare against.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                      # write BENCH_substrate.json
    PYTHONPATH=src python benchmarks/run_bench.py -o out.json          # custom output path
    PYTHONPATH=src python benchmarks/run_bench.py --baseline old.json  # embed speedup factors
    PYTHONPATH=src python benchmarks/run_bench.py --only graph_pattern_match
    PYTHONPATH=src python benchmarks/run_bench.py --quick -o /tmp/q.json  # smoke mode

``--quick`` shrinks the workload and the round count so the whole suite
finishes in a few seconds; it exists so CI can smoke-test that every
benchmark still runs (see ``tests/test_benchmarks.py``), not to produce
comparable numbers (quick reports are marked ``"quick": true`` in their
meta and should not be used as baselines).

Each benchmark is warmed up for ``--warmup`` untimed rounds, then timed
for a fixed number of rounds (``--rounds``) with ``time.perf_counter``.
Warmup matters: the first few rounds pay allocator growth, lazy imports
and -- worst -- collector pauses triggered by garbage the *previous*
benchmark left behind (the committed report once showed ``graph_copy``
with ``max_s`` ~11.3 ms against a ~0.99 ms mean from exactly that).  The
harness therefore runs a full ``gc.collect()`` after warmup and disables
the cyclic collector for the timed rounds (re-enabled afterwards), so
``max_s`` measures the benchmark, not its neighbours' garbage.  The JSON
layout is::

    {
      "meta": {...workload + python info...},
      "benchmarks": {
        "<name>": {"mean_s": ..., "stddev_s": ..., "min_s": ..., "rounds": N,
                   "baseline_mean_s": ..., "speedup": ...}   # with --baseline
      }
    }
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro._version import __version__
from repro.deltas.lowlevel import LowLevelDelta
from repro.graphtools.betweenness import betweenness_centrality
from repro.io.storage import load_kb, load_users, save_kb, save_users
from repro.kb.namespaces import RDF_TYPE
from repro.kb.ntriples import parse_graph, serialize
from repro.kb.schema import SchemaView
from repro.kb.triples import Triple
from repro.measures.base import EvolutionContext
from repro.measures.catalog import default_catalog
from repro.measures.structural import class_graph
from repro.recommender.engine import EngineConfig, RecommenderEngine
from repro.synthetic.config import EvolutionConfig, SchemaConfig, WorldConfig
from repro.synthetic.schema_gen import SYN
from repro.synthetic.world import generate_world

#: The canonical substrate workload (kept identical to bench_substrate.py).
WORLD_SEED = 4242
WORLD_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=120, n_properties=80),
    evolution=EvolutionConfig(n_versions=3, changes_per_version=150),
)

#: Shrunk workload for ``--quick`` smoke runs (seconds, not minutes).
QUICK_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=30, n_properties=20),
    evolution=EvolutionConfig(n_versions=3, changes_per_version=40),
)

#: Size of the small-delta commit the cold-first-evaluation benchmark times.
SMALL_DELTA_SIZE = 10

#: Instance-churn evolution (no schema ops): the production-shaped
#: cold-boot workload -- a long commit history of instance/link churn over
#: a stable ontology, so boot cost is ingestion-bound (the regime the
#: binary store exists for) while the first recommendation's derived
#: artefacts stay realistic but fixed-size.
INSTANCE_CHURN_MIX = {
    "add_instance": 4.0,
    "remove_instance": 1.0,
    "add_link": 4.0,
    "remove_link": 1.0,
    "change_attribute": 2.0,
}

#: The cold-boot workload: 24 versions of instance churn over 30 classes.
COLD_BOOT_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=30, n_properties=20),
    evolution=EvolutionConfig(
        n_versions=24, changes_per_version=450, op_mix=dict(INSTANCE_CHURN_MIX)
    ),
)

#: Shrunk cold-boot workload for ``--quick`` smoke runs.
QUICK_COLD_BOOT_CONFIG = WorldConfig(
    schema=SchemaConfig(n_classes=15, n_properties=10),
    evolution=EvolutionConfig(
        n_versions=6, changes_per_version=100, op_mix=dict(INSTANCE_CHURN_MIX)
    ),
)

#: Cold-boot rounds are capped separately: one ``.nt`` boot of the full
#: workload costs >1s, and the boot path has little round-to-round
#: variance (file IO + one deterministic parse/decode + one evaluation).
COLD_BOOT_MAX_ROUNDS = 8
COLD_BOOT_MAX_WARMUP = 2

Bench = Tuple[str, Callable[[], object]]


def _build_benchmarks(
    config: WorldConfig = WORLD_CONFIG,
    cold_boot_config: WorldConfig = COLD_BOOT_CONFIG,
) -> List[Bench]:
    world = generate_world(seed=WORLD_SEED, config=config)
    versions = list(world.kb)
    old, new = versions[-2].graph, versions[-1].graph
    graph = new
    # Deterministic predicate sample (value-sorted, unlike the set-ordered
    # pytest variant) so runs are comparable across processes.
    predicates = sorted({t.predicate for t in graph}, key=lambda p: p.value)[:10]

    def graph_pattern_match() -> int:
        total = 0
        for predicate in predicates:
            total += sum(1 for _ in graph.match(None, predicate, None))
        return total

    def lowlevel_delta_compute() -> LowLevelDelta:
        return LowLevelDelta.compute(old, new)

    def schema_view_construction() -> SchemaView:
        view = SchemaView(graph)
        view.classes()
        view.property_edges()
        view.instance_link_count(list(view.classes())[:10])
        return view

    def betweenness_on_class_graph() -> Dict:
        return betweenness_centrality(class_graph(SchemaView(graph)))

    def full_measure_catalog() -> Dict:
        context = EvolutionContext(versions[-2], versions[-1])
        return default_catalog().compute_all(context)

    def ntriples_roundtrip():
        return parse_graph(serialize(graph))

    # Split codec benchmarks: parse alone (fresh dictionary per round --
    # the cold-ingest cost of an HTTP /commit body or one .nt snapshot)
    # and serialize alone (warm n3 cache -- the steady state of snapshot
    # writes from a live chain).
    ntriples_doc = serialize(graph)

    def ntriples_parse():
        return parse_graph(ntriples_doc)

    def ntriples_serialize():
        return serialize(graph)

    def graph_copy():
        return graph.copy()

    def graph_difference():
        return new.difference(old), old.difference(new)

    def group_scoring():
        engine = RecommenderEngine(world.kb)
        return [engine.recommend_group(g, k=5) for g in world.groups[:3]]

    # First evaluation of a freshly committed small-delta version.  A second
    # world keeps the extra commit out of the other benchmarks' chain; it is
    # built lazily on the first (untimed warmup) call so runs that --only
    # exclude this benchmark never pay for it.  The parent's derived
    # artefacts are warmed once (the steady state of a serving deployment);
    # each round then drops the child's schema view and evaluates the full
    # catalogue on the (parent, child) context from scratch -- the "cold
    # first evaluation per version" cost the ROADMAP flags.  The delta only
    # types fresh instances, so the class graph is unchanged: the child
    # reuses the parent's betweenness, and the semantic caches (relative
    # cardinalities, centralities) compute cold from the child's snapshot.
    cold_state: Dict[str, object] = {}

    def cold_first_evaluation():
        if not cold_state:
            cold_kb = generate_world(seed=WORLD_SEED, config=config).kb
            cold_parent = cold_kb.latest()
            cold_grandparent = cold_kb.version(cold_kb.version_ids()[-2])
            target_classes = sorted(cold_parent.schema.classes(), key=lambda c: c.value)
            small_delta = [
                Triple(SYN[f"bench_cold_i{i}"], RDF_TYPE, target_classes[i % len(target_classes)])
                for i in range(SMALL_DELTA_SIZE)
            ]
            cold_state["child"] = cold_kb.commit_changes(
                added=small_delta, version_id="v_cold_bench"
            )
            cold_state["parent"] = cold_parent
            cold_state["catalog"] = default_catalog()
            cold_state["catalog"].compute_all(
                EvolutionContext(cold_grandparent, cold_parent)
            )
        child = cold_state["child"]
        child._schema = None
        return cold_state["catalog"].compute_all(
            EvolutionContext(cold_state["parent"], child)
        )

    # Cold boot: disk -> first recommendation, once per on-disk layout.
    # The worlds are written lazily on the first (untimed warmup) call so
    # --only runs that exclude these benchmarks never pay for them; the
    # temp directory lives until process exit (held in the state dict).
    cold_boot_state: Dict[str, object] = {}

    def _cold_boot_paths():
        if not cold_boot_state:
            import tempfile

            tmp = tempfile.TemporaryDirectory(prefix="repro_cold_boot_")
            cold_boot_state["tmp"] = tmp
            root = Path(tmp.name)
            boot_world = generate_world(seed=WORLD_SEED, config=cold_boot_config)
            save_kb(boot_world.kb, root / "kb_nt")
            save_kb(boot_world.kb, root / "kb_binary", format="binary")
            save_users(boot_world.users, root / "users.json")
            cold_boot_state["root"] = root
        return cold_boot_state["root"]

    def _cold_boot(layout: str):
        root = _cold_boot_paths()
        kb = load_kb(root / f"kb_{layout}")
        users = load_users(root / "users.json")
        engine = RecommenderEngine(kb, config=EngineConfig(k=5, spread_depth=1))
        return engine.recommend(users[0])

    def cold_boot_nt():
        return _cold_boot("nt")

    def cold_boot_binary():
        return _cold_boot("binary")

    return [
        ("graph_pattern_match", graph_pattern_match),
        ("lowlevel_delta_compute", lowlevel_delta_compute),
        ("schema_view_construction", schema_view_construction),
        ("betweenness_on_class_graph", betweenness_on_class_graph),
        ("full_measure_catalog", full_measure_catalog),
        ("ntriples_roundtrip", ntriples_roundtrip),
        ("ntriples_parse", ntriples_parse),
        ("ntriples_serialize", ntriples_serialize),
        ("graph_copy", graph_copy),
        ("graph_difference", graph_difference),
        ("group_scoring", group_scoring),
        ("cold_first_evaluation", cold_first_evaluation),
        ("cold_boot_nt", cold_boot_nt),
        ("cold_boot_binary", cold_boot_binary),
    ]


def _time_one(fn: Callable[[], object], rounds: int, warmup: int) -> Dict[str, float]:
    for _ in range(warmup):
        fn()
    # Timed rounds run with the cyclic collector off: GC pauses triggered by
    # earlier benchmarks' garbage otherwise land as outliers in max_s.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        samples: List[float] = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "mean_s": statistics.fmean(samples),
        "stddev_s": statistics.stdev(samples) if len(samples) > 1 else 0.0,
        "min_s": min(samples),
        "max_s": max(samples),
        "rounds": rounds,
    }


def run(
    output: Path,
    rounds: int = 30,
    warmup: int = 5,
    baseline: Path | None = None,
    only: List[str] | None = None,
    quick: bool = False,
) -> Dict:
    """Run the benchmark suite and write the JSON report; returns the report.

    ``quick=True`` swaps in the shrunk workload and clamps rounds/warmup so
    the whole suite smoke-runs in seconds (numbers not comparable to full
    runs; the report's meta carries ``"quick": true``).
    """
    config = QUICK_CONFIG if quick else WORLD_CONFIG
    cold_boot_config = QUICK_COLD_BOOT_CONFIG if quick else COLD_BOOT_CONFIG
    if quick:
        rounds = min(rounds, 3)
        warmup = min(warmup, 1)
    benches = _build_benchmarks(config, cold_boot_config)
    if only:
        unknown = set(only) - {name for name, _ in benches}
        if unknown:
            raise SystemExit(f"unknown benchmark(s): {', '.join(sorted(unknown))}")
        benches = [(name, fn) for name, fn in benches if name in only]

    baseline_data: Dict = {}
    if baseline is not None:
        baseline_data = json.loads(baseline.read_text()).get("benchmarks", {})

    results: Dict[str, Dict] = {}
    for name, fn in benches:
        if name.startswith("cold_boot"):
            bench_rounds = min(rounds, COLD_BOOT_MAX_ROUNDS)
            # At least one untimed round even under --warmup 0: the first
            # call generates and saves the boot worlds, and that setup
            # cost must never land in a timed sample.
            bench_warmup = max(1, min(warmup, COLD_BOOT_MAX_WARMUP))
        else:
            bench_rounds, bench_warmup = rounds, warmup
        timing = _time_one(fn, rounds=bench_rounds, warmup=bench_warmup)
        base = baseline_data.get(name)
        if base and base.get("mean_s"):
            timing["baseline_mean_s"] = base["mean_s"]
            timing["speedup"] = base["mean_s"] / timing["mean_s"]
        results[name] = timing
        speedup = f"  ({timing['speedup']:.2f}x vs baseline)" if "speedup" in timing else ""
        print(f"{name:32s} mean {timing['mean_s'] * 1e3:9.3f} ms  "
              f"stddev {timing['stddev_s'] * 1e3:7.3f} ms{speedup}")

    report = {
        "meta": {
            "repro_version": __version__,
            "python": platform.python_version(),
            "world_seed": WORLD_SEED,
            "n_classes": config.schema.n_classes,
            "n_properties": config.schema.n_properties,
            "n_versions": config.evolution.n_versions,
            "changes_per_version": config.evolution.changes_per_version,
            "rounds": rounds,
            "warmup": warmup,
            "quick": quick,
            "baseline": str(baseline) if baseline else None,
            "cold_boot": {
                "n_classes": cold_boot_config.schema.n_classes,
                "n_versions": cold_boot_config.evolution.n_versions,
                "changes_per_version": cold_boot_config.evolution.changes_per_version,
                "op_mix": "instance_churn",
                "max_rounds": COLD_BOOT_MAX_ROUNDS,
            },
        },
        "benchmarks": results,
    }
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return report


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "-o", "--output", type=Path, default=Path("BENCH_substrate.json"),
        help="where to write the JSON report (default: BENCH_substrate.json)",
    )
    parser.add_argument("--rounds", type=int, default=30, help="timed rounds per benchmark")
    parser.add_argument("--warmup", type=int, default=5, help="untimed warmup rounds")
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="previous report to compute speedup factors against",
    )
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="run only the named benchmarks",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: shrunk workload, <=3 rounds (not comparable to full runs)",
    )
    args = parser.parse_args(argv)
    run(args.output, rounds=args.rounds, warmup=args.warmup,
        baseline=args.baseline, only=args.only, quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
