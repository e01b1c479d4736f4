"""Plain-text tables: what the benchmark harness prints per experiment.

No third-party table library: a small fixed-width renderer with typed cell
formatting, so benchmark output diffs cleanly and a document can embed
the rendered tables verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


def format_cell(value: object) -> str:
    """Render one cell: floats to 3 decimals, everything else via str."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


@dataclass
class TextTable:
    """A titled fixed-width table."""

    title: str
    columns: Sequence[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one row; must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        """The table as an aligned text block."""
        cells = [[format_cell(c) for c in row] for row in self.rows]
        headers = [str(c) for c in self.columns]
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
            for i in range(len(headers))
        ]

        def line(parts: Sequence[str]) -> str:
            return "  ".join(part.ljust(width) for part, width in zip(parts, widths)).rstrip()

        separator = "-" * (sum(widths) + 2 * (len(widths) - 1))
        out = [self.title, separator, line(headers), separator]
        out.extend(line(row) for row in cells)
        out.append(separator)
        return "\n".join(out)

    def column(self, name: str) -> List[object]:
        """All values of one column (raises ``KeyError`` for unknown names)."""
        try:
            index = list(self.columns).index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} (have {list(self.columns)})") from None
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)
