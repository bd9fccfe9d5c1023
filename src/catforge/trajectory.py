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
    by column; a cell never given is None (an empty CSV cell)."""

    def __init__(self, columns: tuple[str, ...]):
        self.columns = tuple(columns)
        self._cells: dict[str, list] = {c: [] for c in self.columns}

    def append(self, **values):
        """Add one row."""
        self.extend(**{name: [v] for name, v in values.items()})

    def extend(self, **columns):
        """Add rows given column-wise, as sequences or 1-D arrays of equal length."""
        unknown = set(columns) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown trajectory columns: {sorted(unknown)}")
        sizes = {len(v) for v in columns.values()}
        if len(sizes) != 1:
            raise ValueError(f"trajectory columns of unequal lengths {sorted(sizes)}")
        n = sizes.pop()
        for name, cells in self._cells.items():
            cells.extend(np.asarray(columns[name]).tolist() if name in columns else [None] * n)

    def __len__(self) -> int:
        return len(self._cells[self.columns[0]])

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
