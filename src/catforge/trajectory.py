"""Time-series collector for solver observables, with deterministic CSV output."""

from __future__ import annotations

import math

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
    """Ordered record of per-time observables with fixed columns."""

    def __init__(self, columns: tuple[str, ...]):
        self.columns = tuple(columns)
        self._rows: list[tuple] = []

    def append(self, **values):
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown trajectory columns: {sorted(unknown)}")
        self._rows.append(tuple(values.get(c) for c in self.columns))

    def __len__(self) -> int:
        return len(self._rows)

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([math.nan if r[i] is None else float(r[i]) for r in self._rows])

    def row_at(self, t: float, atol: float = 1e-9) -> dict:
        ts = self.column("t")
        i = int(np.argmin(np.abs(ts - t)))
        if abs(ts[i] - t) > atol:
            raise KeyError(f"no record at t={t} (closest {ts[i]})")
        return dict(zip(self.columns, self._rows[i]))

    def write_csv(self, path):
        write_columns(path, self.columns, zip(*self._rows))
