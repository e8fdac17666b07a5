"""Experiment harness: result tables and shared measurement helpers.

Every ``run_figNN`` function in :mod:`repro.experiments.figures` returns a
:class:`ResultTable` that renders the same rows/series the paper's figure
reports.  The helpers here implement the paper's measurement protocol:

* a query's parallel search time is the page count of the **busiest** disk
  times the page service time;
* speed-up is the sequential search time (one disk, one index over all
  data) divided by the parallel search time;
* every experiment averages over a batch of queries ("each experiment has
  been performed [repeatedly] and the average ... is used").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ResultTable",
    "QueryCosts",
    "query_costs",
    "geometric_mean",
]

Cell = Union[int, float, str]


@dataclass
class ResultTable:
    """A figure/table reproduction: header, rows, and free-form notes."""

    title: str
    columns: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Cell]:
        """All values of one column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    @staticmethod
    def _format(cell: Cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3g}" if abs(cell) < 1000 else f"{cell:.0f}"
        return str(cell)

    def to_text(self) -> str:
        """Render as a fixed-width ASCII table."""
        formatted = [[self._format(c) for c in row] for row in self.rows]
        widths = [
            max(len(header), *(len(r[i]) for r in formatted), 1)
            if formatted
            else len(header)
            for i, header in enumerate(self.columns)
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            h.ljust(w) for h, w in zip(self.columns, widths)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in formatted:
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render as a GitHub-flavored markdown table."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(self._format(c) for c in row) + " |"
            )
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)

    def to_ascii_chart(
        self, value_column: str, label_column: Optional[str] = None,
        width: int = 40,
    ) -> str:
        """Render one numeric column as a horizontal ASCII bar chart.

        Handy for eyeballing speed-up curves straight from the CLI.
        """
        labels = (
            self.column(label_column)
            if label_column
            else [str(row[0]) for row in self.rows]
        )
        values = [float(v) for v in self.column(value_column)]
        if not values:
            return f"{self.title}\n(empty)"
        peak = max(max(values), 1e-12)
        label_width = max((len(str(l)) for l in labels), default=1)
        lines = [f"{self.title} — {value_column}"]
        for label, value in zip(labels, values):
            bar = "#" * max(1, int(round(width * value / peak)))
            lines.append(
                f"{str(label).rjust(label_width)} | {bar} {value:.3g}"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Render as CSV (header + rows; notes are skipped)."""
        def escape(cell: Cell) -> str:
            text = self._format(cell)
            if any(ch in text for ch in ',"\n'):
                return '"' + text.replace('"', '""') + '"'
            return text

        lines = [",".join(escape(c) for c in self.columns)]
        lines.extend(
            ",".join(escape(c) for c in row) for row in self.rows
        )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - delegates
        return self.to_text()


@dataclass
class QueryCosts:
    """Averaged costs of one (engine, workload, k) combination."""

    mean_pages: float
    mean_time_ms: float
    mean_balance: float = 1.0  # busiest disk / mean disk


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (speed-up ratios compose multiplicatively)."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0 or (values <= 0).any():
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.log(values).mean()))


def query_costs(
    engine: Any, queries: np.ndarray, k: int, **options: Any
) -> QueryCosts:
    """Average busiest-disk costs of an in-process engine over a query
    batch (``options`` — ``mode`` on ``ParallelEngine`` — go to
    its ``query``); the sequential baseline is the one-disk case."""
    pages, times, balance = [], [], []
    for query in queries:
        result = engine.query(query, k, **options)
        pages.append(result.max_pages)
        times.append(result.parallel_time_ms)
        mean_load = result.pages_per_disk.mean()
        balance.append(result.max_pages / mean_load if mean_load else 1.0)
    return QueryCosts(
        float(np.mean(pages)), float(np.mean(times)), float(np.mean(balance))
    )
