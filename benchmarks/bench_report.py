"""The one report file every bench writer merges its sections into.

A report is a JSON object of sections (``BENCH_substrate.json`` is the
committed one).  Every section has one shape::

    "<section>": {
      "meta": {...workload, "quick": bool, "cpu_count": int...},
      ...the raw numbers the bench measured...,
      "invariants": {"<name>": true, ...},   # booleans that must be true
      "numbers": {"<name>": 1.23, ...}        # values that carry a bound
    }

The limits themselves live only in ``check_regression.py``, which reads
every section of a report with one rule.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict


def load_report(path: Path) -> Dict:
    """The report at ``path``, or an empty one when there is no file yet."""
    return json.loads(path.read_text()) if path.exists() else {}


def merge_section(path: Path, name: str, section: Dict) -> None:
    """Write ``section`` into the report at ``path``, keeping every other section."""
    report = load_report(path)
    report[name] = section
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    broken = sorted(key for key, held in section["invariants"].items() if held is not True)
    print(f"merged {name} section into {path}"
          + (f" (FAILED invariants: {', '.join(broken)})" if broken else ""))
