"""Plain-text tables and bar charts for benchmark output."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def format_ns(t_ns: float) -> str:
    """Human-readable duration: picks ns/us/ms/s."""
    t_ns = float(t_ns)
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if abs(t_ns) >= scale:
            return f"{t_ns / scale:.2f} {unit}"
    return f"{t_ns:.0f} ns"


class Table:
    """A fixed-width text table printed by the benchmark harnesses."""

    def __init__(self, title: str, columns: Sequence[str],
                 rows: Iterable[Sequence[Cell]] = ()):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []
        for row in rows:
            self.add_row(*row)

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append([self._fmt(c) for c in cells])

    @staticmethod
    def _fmt(cell: Cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(c.rjust(w)
                                   for c, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.render())
        print()


def ascii_bar_chart(title: str, labels: Iterable[str],
                    values: Iterable[float], width: int = 48,
                    unit: str = "") -> str:
    """A horizontal bar chart, one bar per label."""
    labels = list(labels)
    values = [float(v) for v in values]
    if len(labels) != len(values):
        raise ValueError("labels/values length mismatch")
    lines = [f"== {title} =="]
    if not values:
        return "\n".join(lines)
    peak = max(values) or 1.0
    label_w = max(len(s) for s in labels)
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(width * value / peak)) if value > 0 else ""
        lines.append(f"{label.ljust(label_w)} |{bar.ljust(width)}| "
                     f"{value:,.2f}{unit}")
    return "\n".join(lines)
