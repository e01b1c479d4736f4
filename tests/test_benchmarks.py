"""Smoke test: the standalone benchmark harness can't silently rot.

Runs ``benchmarks/run_bench.py`` in-process in ``--quick`` mode (shrunk
world, minimal rounds) and checks the report shape, so a refactor that
breaks any benchmark workload fails the suite instead of the next perf
investigation.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location(
        "run_bench", ROOT / "benchmarks" / "run_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_run_produces_complete_report(run_bench, tmp_path):
    output = tmp_path / "bench.json"
    report = run_bench.run(output, quick=True)
    assert output.exists()
    on_disk = json.loads(output.read_text())["substrate"]
    assert on_disk["benchmarks"].keys() == report["benchmarks"].keys()
    assert on_disk["numbers"]["cold_boot_speedup"] > 0

    expected = {name for name, _ in run_bench._build_benchmarks(run_bench.QUICK_CONFIG)}
    assert report["benchmarks"].keys() == expected
    assert "cold_first_evaluation" in expected
    assert report["meta"]["quick"] is True
    assert report["meta"]["rounds"] <= 3
    for name, timing in report["benchmarks"].items():
        assert timing["mean_s"] > 0.0, name
        assert timing["min_s"] <= timing["mean_s"] <= timing["max_s"]


def test_quick_flag_parses_from_cli(run_bench, tmp_path, capsys):
    output = tmp_path / "cli.json"
    assert run_bench.main(["--quick", "-o", str(output), "--only", "graph_copy"]) == 0
    report = json.loads(output.read_text())["substrate"]
    assert set(report["benchmarks"]) == {"graph_copy"}
    assert report["meta"]["quick"] is True
    # One side of the cold-boot pair was not run, so the ratio the gate
    # bounds is absent (and the gate fails it as missing).
    assert report["numbers"] == {}


def test_only_rerecords_its_entries_in_the_committed_report(run_bench, tmp_path):
    copy = tmp_path / "BENCH_substrate.json"
    shutil.copy(ROOT / "BENCH_substrate.json", copy)
    before = json.loads(copy.read_text())
    assert run_bench.main(["--quick", "--only", "graph_copy", "-o", str(copy)]) == 0
    after = json.loads(copy.read_text())
    assert set(after) == set(before)
    for name in set(before) - {"substrate"}:
        assert after[name] == before[name], name
    entries, old_entries = after["substrate"]["benchmarks"], before["substrate"]["benchmarks"]
    assert set(entries) == set(old_entries)
    for name in set(old_entries) - {"graph_copy"}:
        assert entries[name] == old_entries[name], name
    assert entries["graph_copy"] != old_entries["graph_copy"]
    assert after["substrate"]["meta"]["quick"] is True
    assert after["substrate"]["numbers"] == before["substrate"]["numbers"]


def test_unknown_benchmark_name_rejected(run_bench, tmp_path):
    with pytest.raises(SystemExit):
        run_bench.run(tmp_path / "x.json", quick=True, only=["no_such_bench"])


@pytest.fixture(scope="module")
def bench_durability():
    spec = importlib.util.spec_from_file_location(
        "bench_durability", ROOT / "benchmarks" / "bench_durability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchDurabilityPieces:
    """Unit pieces of the kill-and-reboot soak (the soak itself runs in CI).

    The full harness spawns subprocesses and SIGKILLs them; here we pin
    the deterministic pieces the zero-loss verdict depends on -- the
    commit stream shared by child and control, the torn-ack tolerance,
    and the crash-plan coverage.
    """

    def test_delta_stream_is_deterministic(self, bench_durability):
        assert bench_durability._delta_for(7) == bench_durability._delta_for(7)
        added, deleted = bench_durability._delta_for(3)
        assert added and deleted  # the deleted-keys half is exercised too
        # Every deletion removes a triple an earlier commit added.
        earlier_added, _ = bench_durability._delta_for(1)
        assert deleted[0] in earlier_added

    def test_vids_sort_in_commit_order(self, bench_durability):
        vids = [bench_durability._vid(i) for i in (0, 9, 10, 99, 100)]
        assert vids == sorted(vids)
        assert len(set(vids)) == len(vids)

    def test_read_acks_ignores_a_torn_last_line(self, bench_durability, tmp_path):
        ack = tmp_path / "acks"
        assert bench_durability._read_acks(ack) == []  # no file yet
        ack.write_bytes(b"c00001\nc00002\nc000")  # killed mid-ack-write
        assert bench_durability._read_acks(ack) == ["c00001", "c00002"]

    def test_crash_plan_covers_append_and_rollup_at_every_site(
        self, bench_durability
    ):
        specs = bench_durability.FULL_CRASHES
        assert len(specs) == 12  # (2 append + 4 rollup sites) x before/after
        assert {spec.split(":")[0] for spec in specs} == {"append", "rollup"}
        assert {spec.rsplit(":", 1)[1] for spec in specs} == {"before", "after"}
        assert set(bench_durability.QUICK_CRASHES) <= set(specs)
