"""Unit tests for the benchmark regression gate (benchmarks/check_regression.py).

The gate is one rule over one bound table, so the tests run over the
table itself: every bound row, every required invariant and every
tolerance entry gets a passing, a violating and a missing value.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "BENCH_substrate.json"


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered before exec: the module's dataclasses resolve their string
    # annotations through sys.modules[cls.__module__].
    sys.modules["check_regression"] = module
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

ROWS = list(gate.BOUNDS)
CONDITIONAL_ROWS = [row for row in ROWS if row.when]
INVARIANTS = [(section, name) for section, names in gate.INVARIANTS.items() for name in names]
SECTIONS = sorted({row.section for row in ROWS} | set(gate.INVARIANTS))


def _row_id(row):
    return f"{row.section}.{row.number}"


def _invariant_id(case):
    return ".".join(case)


def _healthy_section(name):
    """A full multi-core run of ``name`` with every claim at its limit."""
    return {
        "meta": {"quick": False, "cpu_count": 4},
        "invariants": {invariant: True for invariant in gate.INVARIANTS.get(name, ())},
        "numbers": {row.number: row.limit for row in ROWS if row.section == name},
    }


def _healthy_report():
    return {name: _healthy_section(name) for name in SECTIONS}


def _violating(row):
    return row.limit - 1 if row.op == ">=" else row.limit + 1


def _verdict(section_name, section, name):
    by_name = {v.name: v for v in gate.check_section("fresh", section_name, section)}
    return by_name[f"fresh.{section_name}.{name}"]


def _main(tmp_path, baseline, fresh):
    paths = []
    for label, report in (("baseline", baseline), ("fresh", fresh)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(report))
        paths.append(str(path))
    return gate.main(["--baseline", paths[0], "--fresh", paths[1]])


class TestBounds:
    @pytest.mark.parametrize("row", ROWS, ids=_row_id)
    def test_the_limit_itself_passes(self, row):
        assert _verdict(row.section, _healthy_section(row.section), row.number).ok

    @pytest.mark.parametrize("row", ROWS, ids=_row_id)
    def test_a_violating_value_fails(self, row):
        section = _healthy_section(row.section)
        section["numbers"][row.number] = _violating(row)
        verdict = _verdict(row.section, section, row.number)
        assert not verdict.ok
        assert f"not {row.op}" in verdict.note

    @pytest.mark.parametrize("row", ROWS, ids=_row_id)
    def test_a_missing_value_fails(self, row):
        section = _healthy_section(row.section)
        del section["numbers"][row.number]
        verdict = _verdict(row.section, section, row.number)
        assert not verdict.ok
        assert "missing" in verdict.note

    @pytest.mark.parametrize("row", CONDITIONAL_ROWS, ids=_row_id)
    def test_an_unmet_condition_passes_with_its_note(self, row):
        section = _healthy_section(row.section)
        section["numbers"][row.number] = _violating(row)
        section["meta"] = {"quick": True, "cpu_count": 1}
        verdict = _verdict(row.section, section, row.number)
        assert verdict.ok
        assert "not checked" in verdict.note
        for needs, _ in row.when:
            assert needs in verdict.note

    @pytest.mark.parametrize("row", ROWS, ids=_row_id)
    def test_a_violation_makes_the_gate_exit_one(self, row, tmp_path, capsys):
        fresh = _healthy_report()
        fresh[row.section]["numbers"][row.number] = _violating(row)
        assert _main(tmp_path, _healthy_report(), fresh) == 1
        assert f"fresh.{row.section}.{row.number}" in capsys.readouterr().err

    def test_the_parent_limits(self):
        limits = {(row.section, row.number): (row.op, row.limit) for row in ROWS}
        assert limits[("substrate", "cold_boot_speedup")] == (">=", 1.3)
        assert limits[("service_replicated", "top_speedup")] == (">=", 1.5)
        assert limits[("service_http", "idle_connections")] == (">=", 240)
        assert limits[("service_cached", "min_speedup")] == (">=", 2.0)
        assert limits[("durability", "worst_recovery_s")] == ("<=", 10.0)
        assert limits[("durability", "cycles")] == (">=", 20)
        assert limits[("autoscale", "warm_start_ratio")] == ("<=", 0.5)
        assert limits[("autoscale", "hot_p99_ratio")] == ("<=", 1.5)
        assert (gate.TOLERANCE, gate.NOISE_FLOOR_MS) == (2.0, 0.5)


class TestInvariants:
    @pytest.mark.parametrize("case", INVARIANTS, ids=_invariant_id)
    def test_false_fails(self, case):
        section_name, name = case
        section = _healthy_section(section_name)
        section["invariants"][name] = False
        assert not _verdict(section_name, section, name).ok

    @pytest.mark.parametrize("case", INVARIANTS, ids=_invariant_id)
    def test_missing_counts_as_false(self, case):
        section_name, name = case
        section = _healthy_section(section_name)
        del section["invariants"][name]
        assert not _verdict(section_name, section, name).ok

    @pytest.mark.parametrize("case", INVARIANTS, ids=_invariant_id)
    def test_a_broken_invariant_makes_the_gate_exit_one(self, case, tmp_path, capsys):
        section_name, name = case
        baseline = _healthy_report()
        baseline[section_name]["invariants"][name] = False
        assert _main(tmp_path, baseline, _healthy_report()) == 1
        assert f"baseline.{section_name}.{name}" in capsys.readouterr().err

    def test_any_recorded_invariant_must_hold(self):
        section = {"meta": {}, "invariants": {"new_claim": False}, "numbers": {}}
        assert not _verdict("service", section, "new_claim").ok


TOLERANCE_IDS = [f"{section}.{metric}" for section, _, metric, _ in gate.TOLERANCES]


def _timed(section, group, metric, **values):
    return {section: {group: {entry: {metric: value} for entry, value in values.items()}}}


class TestTolerance:
    @pytest.fixture(params=gate.TOLERANCES, ids=TOLERANCE_IDS)
    def entry(self, request):
        section, group, metric, floor = request.param

        def verdicts(baseline, fresh):
            return {
                v.name: v
                for v in gate.compare(
                    _timed(section, group, metric, **baseline),
                    _timed(section, group, metric, **fresh),
                )
            }

        return verdicts, f"{section}.{{}}.{metric}", floor

    def test_within_tolerance_passes(self, entry):
        verdicts, name, floor = entry
        assert verdicts({"a": 10 * floor}, {"a": 20 * floor})[name.format("a")].ok

    def test_beyond_tolerance_fails(self, entry):
        verdicts, name, floor = entry
        verdict = verdicts({"a": 10 * floor}, {"a": 25 * floor})[name.format("a")]
        assert not verdict.ok
        assert "exceeds" in verdict.note

    def test_a_committed_entry_missing_from_the_fresh_report_fails(self, entry):
        verdicts, name, floor = entry
        verdict = verdicts({"gone": 10 * floor, "a": floor}, {"a": floor})[name.format("gone")]
        assert not verdict.ok
        assert "missing" in verdict.note

    def test_a_fresh_only_entry_passes(self, entry):
        verdicts, name, floor = entry
        verdict = verdicts({}, {"new": floor})[name.format("new")]
        assert verdict.ok
        assert "no baseline" in verdict.note

    def test_the_noise_floor_suppresses_micro_ratios(self, entry):
        verdicts, name, floor = entry
        verdict = verdicts({"a": floor / 50}, {"a": floor / 12})[name.format("a")]
        assert verdict.ok
        assert "noise floor" in verdict.note

    def test_the_noise_floor_does_not_mask_real_blowups(self, entry):
        verdicts, name, floor = entry
        assert not verdicts({"a": floor / 50}, {"a": floor * 10})[name.format("a")].ok


class TestSections:
    def test_a_healthy_report_passes(self, tmp_path, capsys):
        assert _main(tmp_path, _healthy_report(), _healthy_report()) == 0
        assert "regression gate: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("name", SECTIONS)
    def test_a_baseline_section_missing_from_the_fresh_report_fails(self, name, tmp_path, capsys):
        fresh = _healthy_report()
        del fresh[name]
        assert _main(tmp_path, _healthy_report(), fresh) == 1
        assert f"fresh.{name}" in capsys.readouterr().err

    def test_only_the_baseline_and_the_fresh_report_are_flags(self):
        options = {
            option for action in gate.build_parser()._actions for option in action.option_strings
        }
        assert options == {"-h", "--help", "--baseline", "--fresh"}


class TestCommittedBaseline:
    def test_the_committed_baseline_passes(self, capsys):
        assert gate.main(["--baseline", str(COMMITTED), "--fresh", str(COMMITTED)]) == 0

    def test_every_section_has_the_one_shape(self):
        for name, section in json.loads(COMMITTED.read_text()).items():
            assert {"meta", "invariants", "numbers"} <= set(section), name
            for row in ROWS:
                if row.section == name:
                    assert row.number in section["numbers"], (name, row.number)

    @pytest.mark.parametrize("case", INVARIANTS, ids=_invariant_id)
    def test_a_broken_committed_invariant_fails(self, case, tmp_path, capsys):
        section_name, name = case
        committed = json.loads(COMMITTED.read_text())
        assert committed[section_name]["invariants"][name] is True
        committed[section_name]["invariants"][name] = False
        assert _main(tmp_path, committed, json.loads(COMMITTED.read_text())) == 1
        assert f"baseline.{section_name}.{name}" in capsys.readouterr().err

    def test_single_core_sections_skip_their_multi_core_rows(self):
        committed = json.loads(COMMITTED.read_text())
        for section_name, number in (
            ("service_replicated", "top_speedup"), ("autoscale", "hot_p99_ratio"),
        ):
            section = committed[section_name]
            assert section["meta"]["cpu_count"] == 1
            verdict = _verdict(section_name, section, number)
            assert verdict.ok and "more than one core" in verdict.note
