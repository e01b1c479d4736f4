"""Documentation contract tests.

The docs are part of the deployment contract, so CI treats them like
code: every relative link and file pointer must resolve (including the
root documents code, benchmarks and tests name), every serve flag must
appear in the operator manual, every bench command shown must parse with
its script's own parser, the frozen /stats field list in the API
reference must match the live payload, and the README quickstart must be
the exact command sequence the docs CI job executes.
"""

import argparse
import importlib
import re
import shlex
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.service.metrics import ServiceMetrics

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [
    ROOT / "README.md",
    ROOT / "docs" / "architecture.md",
    ROOT / "docs" / "operations.md",
    ROOT / "docs" / "http-api.md",
]

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
#: A bare upper-case document name (``README.md``), not part of a path.
_ROOT_DOC = re.compile(r"(?<![\w/.-])([A-Z][A-Z0-9_-]*\.md)\b")
_BACKTICK = re.compile(r"`([^`\n]+)`")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: A shown bench command: its environment prefix, its script and its
#: arguments (up to a comment, a closing backtick or the line's end).
_BENCH_COMMAND = re.compile(r"((?:\w+=\S+ )*)python3? benchmarks/(\w+)\.py([^\n`#]*)")
#: The README, the operator manual and the repository's verify-skill notes.
BENCH_COMMAND_DOCS = [
    ROOT / "README.md",
    ROOT / "docs" / "operations.md",
    *sorted(ROOT.glob(".*/skills/verify/SKILL.md")),
]


def _slug(heading):
    """GitHub's heading -> anchor slug (close enough for our headings)."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


@pytest.fixture(params=DOC_FILES, ids=lambda p: p.name)
def doc(request):
    path = request.param
    assert path.exists(), f"missing documentation file: {path}"
    return path


class TestLinks:
    def test_relative_links_resolve(self, doc):
        text = doc.read_text(encoding="utf-8")
        broken = []
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (doc.parent / path_part) if path_part else doc
            if not resolved.exists():
                broken.append(target)
                continue
            if fragment and resolved.suffix == ".md":
                slugs = {
                    _slug(h) for h in _HEADING.findall(
                        resolved.read_text(encoding="utf-8")
                    )
                }
                if fragment not in slugs:
                    broken.append(target)
        assert not broken, f"{doc.name}: broken links {broken}"

    def test_backticked_repo_paths_exist(self, doc):
        text = doc.read_text(encoding="utf-8")
        missing = []
        for token in _BACKTICK.findall(text):
            candidate = token.split("::")[0].strip()
            looks_like_tree_path = re.fullmatch(
                r"(src|tests|docs|benchmarks|examples)/[\w\-./]+", candidate
            )
            looks_like_root_file = re.fullmatch(r"[\w\-]+\.(md|json|toml)", candidate)
            if looks_like_tree_path or looks_like_root_file:
                if not (ROOT / candidate).exists():
                    missing.append(candidate)
        assert not missing, f"{doc.name}: dangling file pointers {missing}"


class TestRootDocPointers:
    def test_named_root_documents_exist(self):
        """Code, benchmarks and tests may name a root document only if the
        repository has it: a pointer to a missing file is worse than none."""
        missing = []
        for top in ("src", "benchmarks", "tests"):
            for path in sorted((ROOT / top).rglob("*")):
                if not path.is_file() or "__pycache__" in path.parts:
                    continue
                text = path.read_text(encoding="utf-8", errors="ignore")
                for name in sorted(set(_ROOT_DOC.findall(text))):
                    if not (ROOT / name).exists():
                        missing.append(f"{path.relative_to(ROOT)}: {name}")
        assert not missing, f"pointers to missing root documents: {missing}"


class TestOperationsManual:
    def test_every_serve_flag_is_documented(self):
        manual = (ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        serve = subparsers.choices["serve"]
        undocumented = []
        for action in serve._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            flag = action.option_strings[-1] if action.option_strings else action.dest
            if flag not in manual:
                undocumented.append(flag)
        assert not undocumented, (
            f"serve flags missing from docs/operations.md: {undocumented}"
        )

    def test_three_scaling_knobs_rule_present(self):
        manual = (ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        for knob in ("--workers", "--shards", "--replicas"):
            assert knob in manual
        assert "scaling knobs" in manual

    def test_durability_contract_present(self):
        manual = (ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
        assert "never lost" in manual  # the acked-commit guarantee, verbatim


class TestBenchCommands:
    def test_every_shown_bench_command_parses(self):
        sys.path.insert(0, str(ROOT / "benchmarks"))
        try:
            commands = [
                (doc.name, *match.groups())
                for doc in BENCH_COMMAND_DOCS
                for match in _BENCH_COMMAND.finditer(doc.read_text(encoding="utf-8"))
            ]
            assert len(BENCH_COMMAND_DOCS) == 3 and commands
            broken = []
            for doc, prefix, script, args in commands:
                if "PYTHONPATH=src" not in prefix.split():
                    broken.append(f"{doc}: {script} runs without PYTHONPATH=src")
                try:
                    importlib.import_module(script).build_parser().parse_args(shlex.split(args))
                except SystemExit:
                    broken.append(f"{doc}: {script}.py{args}")
        finally:
            sys.path.remove(str(ROOT / "benchmarks"))
        assert not broken, f"bench commands that do not parse: {broken}"


class TestApiReference:
    def test_every_endpoint_has_a_section(self):
        api = (ROOT / "docs" / "http-api.md").read_text(encoding="utf-8")
        for endpoint in (
            "GET /health", "GET /tenants", "GET /stats", "GET /alerts",
            "GET /events", "POST /recommend", "POST /commit",
        ):
            assert f"## `{endpoint}`" in api, endpoint

    def test_frozen_stats_fields_all_documented(self):
        api = (ROOT / "docs" / "http-api.md").read_text(encoding="utf-8")
        metrics = ServiceMetrics()
        fields = (
            {"stats_version", "admission", "tenants", "per_tenant", "workers"}
            | set(metrics.snapshot()) | {"depth"}
            | set(metrics.tenant_snapshot("probe")) | {"persistence"}
            | {"log_records", "log_bytes", "rollup_bytes", "rollup_records"}
        )
        missing = sorted(f for f in fields if f"`{f}`" not in api and f'"{f}"' not in api)
        assert not missing, f"/stats fields missing from docs/http-api.md: {missing}"

    def test_sse_schema_documented(self):
        api = (ROOT / "docs" / "http-api.md").read_text(encoding="utf-8")
        for marker in ("event: stats", "event: alerts", "id:", "data:", "?interval=", "?count="):
            assert marker in api, marker

    def test_alert_kinds_documented(self):
        api = (ROOT / "docs" / "http-api.md").read_text(encoding="utf-8")
        for kind in ("queue_depth", "p99_budget", "log_rollup_near", "log_bytes"):
            assert kind in api, kind


class TestReadmeQuickstart:
    def test_readme_shows_exactly_what_ci_runs(self):
        """The docs CI job runs the quickstart "as the README shows" --
        so every command in that job must appear in the README verbatim."""
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        _, marker, step = ci.partition("Run the README quickstart as written")
        assert marker, "docs CI job lost its quickstart step"
        step = step.split("- name:")[0]
        commands = [
            line.strip().rstrip(" &")
            for line in step.splitlines()
            if line.strip().startswith("python -m repro ")
        ]
        assert commands, "docs CI job lost its quickstart commands"
        missing = [c for c in commands if c not in readme]
        assert not missing, f"CI quickstart commands absent from README.md: {missing}"
