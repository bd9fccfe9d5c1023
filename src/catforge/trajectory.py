"""Time-series collector for solver observables, with deterministic CSV output."""

from __future__ import annotations

import numpy as np

__all__ = ["TrajectoryRecord", "format_column", "write_columns"]


def format_column(values) -> list[str]:
    """Shortest round-trip decimal form (repr) of each value; None and NaN give empty cells."""
    cells = map(repr, np.asarray(values, dtype=float).ravel().tolist())
    return ["" if c == "nan" else c for c in cells]


def write_columns(path, header: tuple[str, ...], columns):
    """A header line, then one line per row of the equal-length columns.

    A column given as a list is taken as already formatted cells (str)."""
    cells = [c if isinstance(c, list) else format_column(c) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


class TrajectoryRecord:
    """Ordered record of per-time observables with fixed columns, held column
    by column.  The cells are given column-wise, as sequences or 1-D arrays of
    one length; a column not given holds None (an empty CSV cell) in every row."""

    def __init__(self, columns: tuple[str, ...], **cells):
        unknown = set(cells) - set(columns)
        if unknown:
            raise KeyError(f"unknown trajectory columns: {sorted(unknown)}")
        sizes = {len(v) for v in cells.values()}
        if len(sizes) != 1:
            raise ValueError(f"trajectory columns need one length, got {sorted(sizes)}")
        n = sizes.pop()
        self.columns = tuple(columns)
        self._cells = {c: np.asarray(cells[c]).tolist() if c in cells else [None] * n for c in self.columns}

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self._cells[name], dtype=float)

    def row_at(self, t: float, atol: float = 1e-9) -> dict:
        ts = self.column("t")
        i = int(np.argmin(np.abs(ts - t)))
        if abs(ts[i] - t) > atol:
            raise KeyError(f"no record at t={t} (closest {ts[i]})")
        return {name: cells[i] for name, cells in self._cells.items()}

    def write_csv(self, path):
        write_columns(path, self.columns, map(self.column, self.columns))
