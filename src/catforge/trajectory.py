"""Time-series collector for solver observables, with deterministic CSV output."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TrajectoryRecord", "format_column", "format_float"]


def format_float(x) -> str:
    """Shortest round-trip decimal form; empty cell for missing values."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def format_column(values) -> list[str]:
    """format_float over a whole column at once; None and NaN give empty cells."""
    cells = map(repr, np.asarray(values, dtype=float).ravel().tolist())
    return ["" if c == "nan" else c for c in cells]


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

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self._rows:
            lines.append(",".join(format_float(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv())
