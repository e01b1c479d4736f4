"""End-to-end tests for the ``python -m repro`` CLI."""

import argparse
import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    code = main(
        [
            "generate",
            "--out", str(out),
            "--seed", "3",
            "--classes", "30",
            "--versions", "3",
            "--users", "4",
        ]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_outputs_exist(self, world_dir):
        assert (world_dir / "kb" / "manifest.json").exists()
        assert (world_dir / "users.json").exists()

    def test_manifest_lists_versions(self, world_dir):
        manifest = json.loads((world_dir / "kb" / "manifest.json").read_text())
        assert [v["version_id"] for v in manifest["versions"]] == ["v1", "v2", "v3"]


class TestMeasures:
    def test_prints_all_measures(self, world_dir, capsys):
        assert main(["measures", "--kb", str(world_dir / "kb")]) == 0
        out = capsys.readouterr().out
        assert "class_change_count" in out
        assert "relevance_shift" in out

    def test_explicit_versions(self, world_dir, capsys):
        assert main(
            ["measures", "--kb", str(world_dir / "kb"), "--old", "v1", "--new", "v3"]
        ) == 0
        assert "v1 -> v3" in capsys.readouterr().out


class TestRecommend:
    def test_recommend_prints_and_saves(self, world_dir, capsys, tmp_path):
        out_file = tmp_path / "package.json"
        code = main(
            [
                "recommend",
                "--kb", str(world_dir / "kb"),
                "--users", str(world_dir / "users.json"),
                "--user", "u0",
                "-k", "3",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "recommendations for u0" in stdout
        payload = json.loads(out_file.read_text())
        assert payload["audience"] == "u0"
        assert len(payload["items"]) == 3

    def test_unknown_user_exits_with_candidates(self, world_dir):
        with pytest.raises(SystemExit, match="u0"):
            main(
                [
                    "recommend",
                    "--kb", str(world_dir / "kb"),
                    "--users", str(world_dir / "users.json"),
                    "--user", "ghost",
                ]
            )


class TestReport:
    def test_report_guarantee_line(self, world_dir, capsys):
        assert main(
            ["report", "--kb", str(world_dir / "kb"), "--anonymity", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "k-anonymity guarantee holds: True" in out

    def test_suppress_strategy(self, world_dir, capsys):
        assert main(
            [
                "report",
                "--kb", str(world_dir / "kb"),
                "--anonymity", "3",
                "--strategy", "suppress",
            ]
        ) == 0
        assert "suppress" in capsys.readouterr().out


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_single_version_kb_rejected(self, tmp_path, capsys):
        from repro.io import save_kb
        from repro.kb.graph import Graph
        from repro.kb.version import VersionedKnowledgeBase

        kb = VersionedKnowledgeBase()
        kb.commit(Graph())
        save_kb(kb, tmp_path / "kb1")
        with pytest.raises(SystemExit, match="two versions"):
            main(["measures", "--kb", str(tmp_path / "kb1")])


class TestConvert:
    def test_convert_to_binary_and_back(self, world_dir, tmp_path, capsys):
        assert main(
            ["convert", "--src", str(world_dir / "kb"), "--out", str(tmp_path / "bin")]
        ) == 0
        assert "binary layout" in capsys.readouterr().out
        assert (tmp_path / "bin" / "kb.rpw").exists()
        assert main(
            [
                "convert",
                "--src", str(tmp_path / "bin"),
                "--out", str(tmp_path / "nt"),
                "--to", "nt",
            ]
        ) == 0
        from repro.io import load_kb
        from repro.kb import wire

        original = load_kb(world_dir / "kb")
        binary = load_kb(tmp_path / "bin")
        back = load_kb(tmp_path / "nt")
        assert original.version_ids() == binary.version_ids() == back.version_ids()
        assert wire.dictionaries_identical(
            original.first().graph.dictionary, binary.first().graph.dictionary
        )
        for a, b, c in zip(original, binary, back):
            assert a.graph == b.graph == c.graph

    def test_same_directory_rejected(self, world_dir):
        with pytest.raises(SystemExit, match="distinct"):
            main(
                [
                    "convert",
                    "--src", str(world_dir / "kb"),
                    "--out", str(world_dir / "kb"),
                ]
            )

    def test_corrupt_store_reports_clean_error(self, world_dir, tmp_path):
        assert main(
            ["convert", "--src", str(world_dir / "kb"), "--out", str(tmp_path / "bin")]
        ) == 0
        base = tmp_path / "bin" / "kb.rpw"
        base.write_bytes(base.read_bytes()[: base.stat().st_size // 2])
        with pytest.raises(SystemExit, match="error:"):
            main(
                ["convert", "--src", str(tmp_path / "bin"), "--out", str(tmp_path / "x")]
            )

    def test_measures_work_on_binary_store(self, world_dir, tmp_path, capsys):
        assert main(
            ["convert", "--src", str(world_dir / "kb"), "--out", str(tmp_path / "bin")]
        ) == 0
        capsys.readouterr()
        assert main(["measures", "--kb", str(tmp_path / "bin")]) == 0
        assert "class_change_count" in capsys.readouterr().out


class TestGenerateBinaryFormat:
    def test_generate_binary_layout(self, tmp_path, capsys):
        assert main(
            [
                "generate",
                "--out", str(tmp_path / "w"),
                "--seed", "3",
                "--classes", "20",
                "--versions", "2",
                "--users", "2",
                "--format", "binary",
            ]
        ) == 0
        assert "(binary layout)" in capsys.readouterr().out
        assert (tmp_path / "w" / "kb" / "kb.rpw").exists()
        assert not (tmp_path / "w" / "kb" / "manifest.json").exists()


class TestCompactStore:
    """``compact-store``: offline roll-up of a binary store's commit log."""

    def _seeded_store(self, tmp_path, n_commits=4):
        from repro.io import BinaryKBStore
        from repro.kb.graph import Graph
        from repro.kb.namespaces import EX, RDF_TYPE, RDFS_CLASS
        from repro.kb.triples import Triple
        from repro.kb.version import VersionedKnowledgeBase

        kb = VersionedKnowledgeBase("cli_demo")
        kb.commit(Graph([Triple(EX.A, RDF_TYPE, RDFS_CLASS)]), version_id="v1")
        store = BinaryKBStore.save(kb, tmp_path / "kb")
        for i in range(n_commits):
            kb.commit_changes(
                added=[Triple(EX[f"c{i}"], RDF_TYPE, RDFS_CLASS)],
                version_id=f"c{i}",
            )
            store.sync(kb)
        return tmp_path / "kb"

    def test_absorbs_the_log_into_the_base(self, tmp_path, capsys):
        from repro.io import load_kb

        kb_dir = self._seeded_store(tmp_path)
        assert (kb_dir / "commits.rpl").stat().st_size > 0
        assert main(["compact-store", "--kb", str(kb_dir)]) == 0
        assert "absorbed 4 log records" in capsys.readouterr().out
        assert (kb_dir / "commits.rpl").stat().st_size == 0
        assert load_kb(kb_dir).version_ids() == ["v1", "c0", "c1", "c2", "c3"]

    def test_under_threshold_is_a_no_op(self, tmp_path, capsys):
        kb_dir = self._seeded_store(tmp_path)
        log_bytes = (kb_dir / "commits.rpl").read_bytes()
        assert main(
            ["compact-store", "--kb", str(kb_dir), "--rollup-records", "100"]
        ) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert (kb_dir / "commits.rpl").read_bytes() == log_bytes

    def test_retain_thins_the_rolled_up_chain(self, tmp_path, capsys):
        from repro.io import load_kb

        kb_dir = self._seeded_store(tmp_path)
        assert main(
            ["compact-store", "--kb", str(kb_dir), "--retain", "last:2"]
        ) == 0
        assert "versions (last:2)" in capsys.readouterr().out
        loaded = load_kb(kb_dir)
        assert loaded.name == "cli_demo"  # thinning keeps the store identity
        assert loaded.version_ids()[0] == "v1"  # root always survives
        assert loaded.version_ids()[-1] == "c3"  # so does the head
        assert (kb_dir / "commits.rpl").stat().st_size == 0

    def test_bad_retain_spec_rejected(self, tmp_path):
        kb_dir = self._seeded_store(tmp_path)
        with pytest.raises(SystemExit, match="retention spec"):
            main(["compact-store", "--kb", str(kb_dir), "--retain", "bogus:x"])

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="error:"):
            main(["compact-store", "--kb", str(tmp_path / "nope")])


class TestServeRollupKnobs:
    def test_knobs_require_persist(self, world_dir):
        with pytest.raises(SystemExit, match="only apply with --persist"):
            main(
                [
                    "serve",
                    "--kb", str(world_dir / "kb"),
                    "--users", str(world_dir / "users.json"),
                    "--rollup-records", "4",
                ]
            )

    def test_invalid_threshold_rejected(self, world_dir, tmp_path, capsys):
        assert main(
            ["convert", "--src", str(world_dir / "kb"), "--out", str(tmp_path / "bin")]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="rollup_records"):
            main(
                [
                    "serve",
                    "--kb", str(tmp_path / "bin"),
                    "--users", str(world_dir / "users.json"),
                    "--persist",
                    "--rollup-records", "0",
                ]
            )


class TestServeCacheFlags:
    """serve --cache-entries/--cache-bytes: ServiceConfig validation rides
    the existing error: SystemExit path; negatives never reach serving."""

    def test_negative_entries_rejected(self, world_dir):
        with pytest.raises(SystemExit, match="cache_entries"):
            main(
                [
                    "serve",
                    "--kb", str(world_dir / "kb"),
                    "--users", str(world_dir / "users.json"),
                    "--cache-entries", "-1",
                ]
            )

    def test_negative_bytes_rejected(self, world_dir):
        with pytest.raises(SystemExit, match="cache_bytes"):
            main(
                [
                    "serve",
                    "--kb", str(world_dir / "kb"),
                    "--users", str(world_dir / "users.json"),
                    "--cache-bytes", "-1",
                ]
            )

    def test_knobs_reach_service_config(self):
        # The knobs land in the shared ServiceConfig, which is exactly the
        # object the single-process service and the sharded supervisor's
        # worker processes are all built from.
        from repro.service import ServiceConfig

        config = ServiceConfig(cache_entries=128, cache_bytes=1 << 20)
        assert config.cache_entries == 128
        assert config.cache_bytes == 1 << 20
        with pytest.raises(ValueError, match="cache_entries"):
            ServiceConfig(cache_entries=-1)


class TestServeAsyncFlags:
    def test_front_end_flags_apply_to_every_topology(self, world_dir):
        # One front-end serves every topology, so its flags are validated
        # the same way with or without shards (and before any spawn).
        for extra in ([], ["--shards", "2"]):
            with pytest.raises(SystemExit, match="events_interval must be > 0"):
                main(
                    [
                        "serve",
                        "--kb", str(world_dir / "kb"),
                        "--users", str(world_dir / "users.json"),
                        "--events-interval", "0", *extra,
                    ]
                )

    def test_bad_alert_threshold_rejected(self, world_dir):
        with pytest.raises(SystemExit, match="p99_ms"):
            main(
                [
                    "serve",
                    "--kb", str(world_dir / "kb"),
                    "--users", str(world_dir / "users.json"),
                    "--alert-p99-ms", "-5",
                ]
            )


class TestHelpTextAudit:
    """Every argument of every subcommand must explain itself in --help."""

    def test_every_argument_has_help(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        missing = []
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                if not action.help:
                    missing.append(f"{name}: {'/'.join(action.option_strings) or action.dest}")
        assert not missing, f"arguments without help text: {missing}"
