"""Unit tests for the benchmark regression gate (benchmarks/check_regression.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered before exec: the module's dataclass resolves its string
    # annotations through sys.modules[cls.__module__].
    sys.modules["check_regression"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("check_regression", None)


def _report(**means_ms):
    return {
        "benchmarks": {
            name: {"mean_s": mean_ms / 1e3} for name, mean_ms in means_ms.items()
        }
    }


def _service_report(**levels):
    """{"clients_8": (p50_ms, p99_ms), ...} -> a bench_service-shaped report."""
    return {
        "service": {
            "meta": {},
            "levels": {
                name: {"p50_ms": p50, "p99_ms": p99}
                for name, (p50, p99) in levels.items()
            },
        }
    }


class TestCompareReports:
    def test_all_within_tolerance_pass(self, gate):
        verdicts = gate.compare_reports(
            _report(a=10.0, b=5.0), _report(a=12.0, b=9.0), tolerance=2.0
        )
        assert all(v.ok for v in verdicts)

    def test_regression_beyond_tolerance_fails(self, gate):
        verdicts = gate.compare_reports(
            _report(slow=10.0), _report(slow=25.0), tolerance=2.0
        )
        (verdict,) = verdicts
        assert not verdict.ok
        assert verdict.ratio == pytest.approx(2.5)

    def test_missing_benchmark_fails(self, gate):
        verdicts = gate.compare_reports(_report(gone=10.0), _report(), tolerance=2.0)
        (verdict,) = verdicts
        assert not verdict.ok
        assert "missing" in verdict.note

    def test_new_benchmark_passes(self, gate):
        verdicts = gate.compare_reports(_report(), _report(new=10.0), tolerance=2.0)
        (verdict,) = verdicts
        assert verdict.ok
        assert "no baseline" in verdict.note

    def test_noise_floor_suppresses_micro_ratios(self, gate):
        # 0.01ms -> 0.04ms is 4x but both sides are timer noise.
        verdicts = gate.compare_reports(
            _report(micro=0.01), _report(micro=0.04), tolerance=2.0
        )
        (verdict,) = verdicts
        assert verdict.ok
        assert "noise floor" in verdict.note

    def test_noise_floor_does_not_mask_real_blowups(self, gate):
        # A micro benchmark that climbs above the floor is judged by ratio.
        verdicts = gate.compare_reports(
            _report(micro=0.01), _report(micro=5.0), tolerance=2.0
        )
        (verdict,) = verdicts
        assert not verdict.ok

    def test_bad_tolerance_rejected(self, gate):
        with pytest.raises(ValueError):
            gate.compare_reports(_report(), _report(), tolerance=0.0)


class TestCompareServiceSections:
    def test_within_tolerance_pass(self, gate):
        verdicts = gate.compare_service_sections(
            _service_report(clients_8=(60.0, 130.0)),
            _service_report(clients_8=(20.0, 90.0)),
            tolerance=2.0,
        )
        assert len(verdicts) == 2  # p50 + p99
        assert {v.name for v in verdicts} == {
            "service.clients_8.p50_ms",
            "service.clients_8.p99_ms",
        }
        assert all(v.ok for v in verdicts)

    def test_latency_blowup_fails(self, gate):
        verdicts = gate.compare_service_sections(
            _service_report(clients_8=(60.0, 130.0)),
            _service_report(clients_8=(200.0, 130.0)),
            tolerance=2.0,
        )
        by_name = {v.name: v for v in verdicts}
        assert not by_name["service.clients_8.p50_ms"].ok
        assert by_name["service.clients_8.p99_ms"].ok

    def test_missing_level_fails(self, gate):
        verdicts = gate.compare_service_sections(
            _service_report(clients_8=(60.0, 130.0), clients_32=(230.0, 480.0)),
            _service_report(clients_8=(50.0, 100.0)),
            tolerance=2.0,
        )
        missing = [v for v in verdicts if not v.ok]
        assert {v.name for v in missing} == {
            "service.clients_32.p50_ms",
            "service.clients_32.p99_ms",
        }
        assert all("missing" in v.note for v in missing)

    def test_fresh_only_level_passes(self, gate):
        verdicts = gate.compare_service_sections(
            _service_report(),
            _service_report(clients_8=(50.0, 100.0)),
            tolerance=2.0,
        )
        assert verdicts and all(v.ok for v in verdicts)
        assert all("no baseline" in v.note for v in verdicts)

    def test_noise_floor_applies(self, gate):
        verdicts = gate.compare_service_sections(
            _service_report(clients_1=(0.01, 0.02)),
            _service_report(clients_1=(0.04, 0.08)),  # 4x but timer noise
            tolerance=2.0,
        )
        assert all(v.ok for v in verdicts)
        assert all("noise floor" in v.note for v in verdicts)

    def test_no_service_sections_is_empty(self, gate):
        assert gate.compare_service_sections({}, {}, tolerance=2.0) == []

    def test_committed_baseline_service_section_gates_itself(self, gate):
        baseline = json.loads((ROOT / "BENCH_substrate.json").read_text())
        verdicts = gate.compare_service_sections(baseline, baseline, tolerance=2.0)
        assert verdicts and all(v.ok for v in verdicts)


class TestMain:
    def _write(self, path, report):
        path.write_text(json.dumps(report))
        return path

    def test_exit_zero_on_pass(self, gate, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", _report(a=10.0))
        fresh = self._write(tmp_path / "fresh.json", _report(a=11.0))
        code = gate.main(["--baseline", str(baseline), "--fresh", str(fresh)])
        assert code == 0
        assert "regression gate: ok" in capsys.readouterr().out

    def test_exit_one_on_regression(self, gate, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", _report(a=10.0))
        fresh = self._write(tmp_path / "fresh.json", _report(a=100.0))
        code = gate.main(["--baseline", str(baseline), "--fresh", str(fresh)])
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "FAIL" in captured.err

    def test_tolerance_flag(self, gate, tmp_path):
        baseline = self._write(tmp_path / "base.json", _report(a=10.0))
        fresh = self._write(tmp_path / "fresh.json", _report(a=100.0))
        code = gate.main(
            ["--baseline", str(baseline), "--fresh", str(fresh), "--tolerance", "20"]
        )
        assert code == 0

    def test_fresh_service_flag_gates_service_levels(self, gate, tmp_path, capsys):
        baseline = {
            **_report(a=10.0),
            **_service_report(clients_8=(60.0, 130.0)),
        }
        fresh_service = _service_report(clients_8=(500.0, 130.0))  # p50 blowup
        baseline_path = self._write(tmp_path / "base.json", baseline)
        fresh_path = self._write(tmp_path / "fresh.json", _report(a=10.0))
        service_path = self._write(tmp_path / "service.json", fresh_service)
        code = gate.main(
            [
                "--baseline", str(baseline_path),
                "--fresh", str(fresh_path),
                "--fresh-service", str(service_path),
            ]
        )
        assert code == 1
        assert "service.clients_8.p50_ms" in capsys.readouterr().out

    def test_against_committed_baseline_layout(self, gate):
        """The committed BENCH_substrate.json parses in the expected layout."""
        baseline = json.loads((ROOT / "BENCH_substrate.json").read_text())
        assert "benchmarks" in baseline
        # The service section added by bench_service.py must not confuse the gate.
        verdicts = gate.compare_reports(baseline, baseline, tolerance=2.0)
        assert verdicts and all(v.ok for v in verdicts)
        assert "service" in baseline  # serving numbers landed next to the means


class TestColdBootGate:
    def test_ratio_above_floor_passes(self, gate):
        (verdict,) = gate.check_cold_boot(
            _report(cold_boot_nt=100.0, cold_boot_binary=20.0), min_ratio=1.3
        )
        assert verdict.ok
        assert verdict.ratio == pytest.approx(5.0)

    def test_ratio_below_floor_fails(self, gate):
        (verdict,) = gate.check_cold_boot(
            _report(cold_boot_nt=100.0, cold_boot_binary=90.0), min_ratio=1.3
        )
        assert not verdict.ok
        assert "floor" in verdict.note

    def test_both_missing_yields_no_verdict(self, gate):
        assert gate.check_cold_boot(_report(other=1.0), min_ratio=1.3) == []

    def test_one_side_missing_fails(self, gate):
        (verdict,) = gate.check_cold_boot(
            _report(cold_boot_nt=100.0), min_ratio=1.3
        )
        assert not verdict.ok
        assert "missing" in verdict.note

    def test_invalid_floor_rejected(self, gate):
        with pytest.raises(ValueError):
            gate.check_cold_boot(_report(), min_ratio=0.0)

    def test_main_wires_the_gate(self, gate, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        report = _report(cold_boot_nt=100.0, cold_boot_binary=90.0)
        baseline.write_text(json.dumps(report))
        fresh.write_text(json.dumps(report))
        code = gate.main(["--baseline", str(baseline), "--fresh", str(fresh)])
        out = capsys.readouterr().out
        assert code == 1
        assert "cold_boot_speedup" in out
        # A higher ratio or an explicit lower floor passes.
        assert gate.main(
            ["--baseline", str(baseline), "--fresh", str(fresh),
             "--cold-boot-min-ratio", "1.05"]
        ) == 0


def _durability_report(**overrides):
    """A bench_durability-shaped report, healthy unless overridden."""
    section = {
        "meta": {"quick": False},
        "cycles": 24,
        "zero_loss": True,
        "log_bounded": True,
        "responses_bit_identical": True,
        "recovery": {"mean_s": 0.01, "max_s": 0.05, "budget_s": 10.0},
    }
    section.update(overrides)
    return {"durability": section}


class TestDurabilityGate:
    def test_absent_section_yields_no_verdicts(self, gate):
        assert gate.check_durability({}) == []

    def test_healthy_full_soak_passes(self, gate):
        verdicts = gate.check_durability(_durability_report())
        assert {v.name for v in verdicts} == {
            "durability.zero_loss",
            "durability.log_bounded",
            "durability.responses_bit_identical",
            "durability.recovery",
            "durability.cycles",
        }
        assert all(v.ok for v in verdicts)

    @pytest.mark.parametrize(
        "flag", ["zero_loss", "log_bounded", "responses_bit_identical"]
    )
    def test_any_false_invariant_fails(self, gate, flag):
        verdicts = gate.check_durability(_durability_report(**{flag: False}))
        by_name = {v.name: v for v in verdicts}
        assert not by_name[f"durability.{flag}"].ok
        assert f"{flag}=False" in by_name[f"durability.{flag}"].note

    def test_missing_invariant_fails_like_false(self, gate):
        report = _durability_report()
        del report["durability"]["zero_loss"]
        by_name = {v.name: v for v in gate.check_durability(report)}
        assert not by_name["durability.zero_loss"].ok

    def test_recovery_over_budget_fails(self, gate):
        verdicts = gate.check_durability(
            _durability_report(recovery={"max_s": 11.0, "budget_s": 10.0})
        )
        by_name = {v.name: v for v in verdicts}
        assert not by_name["durability.recovery"].ok
        assert "over" in by_name["durability.recovery"].note

    def test_recovery_without_numbers_fails(self, gate):
        verdicts = gate.check_durability(_durability_report(recovery={}))
        by_name = {v.name: v for v in verdicts}
        assert not by_name["durability.recovery"].ok

    def test_shrunk_soak_fails_unless_quick(self, gate):
        by_name = {
            v.name: v for v in gate.check_durability(_durability_report(cycles=6))
        }
        assert not by_name["durability.cycles"].ok
        quick = gate.check_durability(
            _durability_report(cycles=6, meta={"quick": True})
        )
        assert all(v.ok for v in quick)

    def test_label_prefixes_every_verdict(self, gate):
        verdicts = gate.check_durability(
            _durability_report(), label="fresh.durability"
        )
        assert all(v.name.startswith("fresh.durability.") for v in verdicts)

    def test_committed_baseline_durability_section_gates_itself(self, gate):
        baseline = json.loads((ROOT / "BENCH_substrate.json").read_text())
        verdicts = gate.check_durability(baseline)
        assert verdicts and all(v.ok for v in verdicts)

    def test_main_always_gates_the_baseline_durability_section(
        self, gate, tmp_path, capsys
    ):
        baseline = {**_report(a=10.0), **_durability_report(zero_loss=False)}
        baseline_path = tmp_path / "base.json"
        baseline_path.write_text(json.dumps(baseline))
        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text(json.dumps(_report(a=10.0)))
        code = gate.main(
            ["--baseline", str(baseline_path), "--fresh", str(fresh_path)]
        )
        assert code == 1
        assert "durability.zero_loss" in capsys.readouterr().out

    def test_fresh_durability_flag(self, gate, tmp_path, capsys):
        baseline_path = tmp_path / "base.json"
        baseline_path.write_text(json.dumps(_report(a=10.0)))
        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text(json.dumps(_report(a=10.0)))
        soak_path = tmp_path / "soak.json"
        soak_path.write_text(
            json.dumps(_durability_report(log_bounded=False, meta={"quick": True}))
        )
        code = gate.main(
            [
                "--baseline", str(baseline_path),
                "--fresh", str(fresh_path),
                "--fresh-durability", str(soak_path),
            ]
        )
        assert code == 1
        assert "fresh.durability.log_bounded" in capsys.readouterr().out


def _http_report(bit_identical=True, threads_half=7, **overrides):
    idle = {
        "connections_half": 120,
        "threads_half": threads_half,
        "connections": 240,
        "threads": 7,
    }
    idle.update(overrides.pop("idle", {}))
    section = {
        "meta": {"transport": "http"},
        "levels": {},
        "idle_keepalive": idle,
        "responses_bit_identical": bit_identical,
    }
    section.update(overrides)
    return {"service_http": section}


class TestAsyncGate:
    """``check_async`` gates the asyncio front-end's ``service_http`` section."""

    def test_absent_section_yields_no_verdicts(self, gate):
        assert gate.check_async(_report(a=10.0)) == []

    def test_healthy_section_passes(self, gate):
        verdicts = gate.check_async(_http_report())
        assert [v.name for v in verdicts] == [
            "service_http.bit_identical", "service_http.idle_threads",
        ]
        assert all(v.ok for v in verdicts)

    def test_bit_identity_false_fails(self, gate):
        verdicts = gate.check_async(_http_report(bit_identical=False))
        by_name = {v.name: v for v in verdicts}
        assert not by_name["service_http.bit_identical"].ok

    def test_missing_bit_identity_fails_like_false(self, gate):
        report = _http_report()
        del report["service_http"]["responses_bit_identical"]
        by_name = {v.name: v for v in gate.check_async(report)}
        assert not by_name["service_http.bit_identical"].ok

    def test_thread_growth_fails(self, gate):
        verdicts = gate.check_async(_http_report(threads_half=6))
        by_name = {v.name: v for v in verdicts}
        assert not by_name["service_http.idle_threads"].ok

    def test_too_few_idle_connections_fails(self, gate):
        def idle_ok(connections):
            report = _http_report(
                idle={"connections_half": connections // 2, "connections": connections}
            )
            return {v.name: v for v in gate.check_async(report)}[
                "service_http.idle_threads"
            ].ok

        assert gate.HTTP_MIN_IDLE_CONNECTIONS == 240
        assert not idle_ok(239)
        assert idle_ok(240)

    def test_missing_idle_block_fails(self, gate):
        report = _http_report()
        del report["service_http"]["idle_keepalive"]
        by_name = {v.name: v for v in gate.check_async(report)}
        assert not by_name["service_http.idle_threads"].ok

    def test_invalid_floor_rejected(self, gate):
        # The N/2 reference count is the comparison's floor: comparing N
        # idle connections with N (or with none) would pass vacuously.
        for half in (240, 0):
            report = _http_report(idle={"connections_half": half})
            by_name = {v.name: v for v in gate.check_async(report)}
            assert not by_name["service_http.idle_threads"].ok

    def test_main_always_gates_the_baseline_async_section(
        self, gate, tmp_path, capsys
    ):
        baseline = {**_report(a=10.0), **_http_report(bit_identical=False)}
        baseline_path = tmp_path / "base.json"
        baseline_path.write_text(json.dumps(baseline))
        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text(json.dumps(_report(a=10.0)))
        code = gate.main(
            ["--baseline", str(baseline_path), "--fresh", str(fresh_path)]
        )
        assert code == 1
        assert "service_http.bit_identical" in capsys.readouterr().out

    def test_committed_baseline_async_section_gates_itself(self, gate):
        baseline = json.loads((ROOT / "BENCH_substrate.json").read_text())
        verdicts = gate.check_async(baseline)
        assert verdicts and all(v.ok for v in verdicts)


def _cache_report(bit_identical=True, speedup=50.0, misses_after=None, **overrides):
    hit_path = {
        "misses_before": 12,
        "misses_after": 12 if misses_after is None else misses_after,
        "hits": 200,
        "requests": 200,
        "engine_free": misses_after is None,
    }
    hit_path.update(overrides.pop("hit_path", {}))
    section = {
        "meta": {"transport": "python-api", "cache_entries": 4096},
        "levels": {},
        "hit_path": hit_path,
        "speedup": speedup,
        "responses_bit_identical": bit_identical,
    }
    section.update(overrides)
    return {"service_cached": section}


class TestCacheGate:
    def test_absent_section_yields_no_verdicts(self, gate):
        assert gate.check_cache(_report(a=10.0)) == []

    def test_healthy_section_passes(self, gate):
        verdicts = gate.check_cache(_cache_report())
        assert [v.name for v in verdicts] == [
            "service_cached.bit_identical",
            "service_cached.engine_free",
            "service_cached.speedup",
        ]
        assert all(v.ok for v in verdicts)

    def test_bit_identity_false_fails(self, gate):
        by_name = {
            v.name: v for v in gate.check_cache(_cache_report(bit_identical=False))
        }
        assert not by_name["service_cached.bit_identical"].ok

    def test_missing_bit_identity_fails_like_false(self, gate):
        report = _cache_report()
        del report["service_cached"]["responses_bit_identical"]
        by_name = {v.name: v for v in gate.check_cache(report)}
        assert not by_name["service_cached.bit_identical"].ok

    def test_grown_miss_counter_fails(self, gate):
        # The warm hammer invoked the engine: the cache stopped caching.
        by_name = {
            v.name: v for v in gate.check_cache(_cache_report(misses_after=13))
        }
        assert not by_name["service_cached.engine_free"].ok

    def test_missing_hit_path_counters_fail(self, gate):
        report = _cache_report()
        del report["service_cached"]["hit_path"]["misses_after"]
        by_name = {v.name: v for v in gate.check_cache(report)}
        assert not by_name["service_cached.engine_free"].ok

    def test_speedup_below_floor_fails(self, gate):
        by_name = {v.name: v for v in gate.check_cache(_cache_report(speedup=1.9))}
        assert not by_name["service_cached.speedup"].ok

    def test_speedup_exactly_at_floor_passes(self, gate):
        by_name = {v.name: v for v in gate.check_cache(_cache_report(speedup=2.0))}
        assert by_name["service_cached.speedup"].ok

    def test_missing_speedup_fails(self, gate):
        report = _cache_report()
        del report["service_cached"]["speedup"]
        by_name = {v.name: v for v in gate.check_cache(report)}
        assert not by_name["service_cached.speedup"].ok

    def test_invalid_floor_rejected(self, gate):
        with pytest.raises(ValueError):
            gate.check_cache(_cache_report(), min_speedup=0)

    def test_main_always_gates_the_baseline_cache_section(
        self, gate, tmp_path, capsys
    ):
        baseline = {**_report(a=10.0), **_cache_report(bit_identical=False)}
        baseline_path = tmp_path / "base.json"
        baseline_path.write_text(json.dumps(baseline))
        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text(json.dumps(_report(a=10.0)))
        code = gate.main(
            ["--baseline", str(baseline_path), "--fresh", str(fresh_path)]
        )
        assert code == 1
        assert "service_cached.bit_identical" in capsys.readouterr().out

    def test_fresh_cache_flag(self, gate, tmp_path, capsys):
        baseline_path = tmp_path / "base.json"
        baseline_path.write_text(json.dumps(_report(a=10.0)))
        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text(json.dumps(_report(a=10.0)))
        cache_path = tmp_path / "cache.json"
        cache_path.write_text(json.dumps(_cache_report(speedup=1.1)))
        code = gate.main(
            [
                "--baseline", str(baseline_path),
                "--fresh", str(fresh_path),
                "--fresh-cache", str(cache_path),
            ]
        )
        assert code == 1
        assert "fresh.service_cached.speedup" in capsys.readouterr().out

    def test_committed_baseline_cache_section_gates_itself(self, gate):
        baseline = json.loads((ROOT / "BENCH_substrate.json").read_text())
        if "service_cached" not in baseline:
            pytest.skip("baseline has no service_cached section yet")
        verdicts = gate.check_cache(baseline)
        assert verdicts and all(v.ok for v in verdicts)
