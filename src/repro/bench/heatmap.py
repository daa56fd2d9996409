"""Heatmap and box-data rendering.

"Lumen ... displays the most useful results in a compact manner (using a
heatmap)."  Without a plotting dependency, a :class:`Heatmap` renders to
an aligned text grid (with a unicode shade ramp mirroring the paper's
red-to-green colour scale) and exports CSV for external plotting.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

#: light-to-dark shade ramp used beside each numeric cell
_SHADES = " ░▒▓█"


@dataclass
class Heatmap:
    """A labelled 2-D grid of scores in [0, 1]; NaN = no data (the
    paper's gray squares).  ``failed`` marks cells a guarded run gave
    up on -- rendered with a distinct glyph so a partially-failed
    campaign is distinguishable from one that never ran those cells."""

    row_labels: list[str]
    col_labels: list[str]
    values: np.ndarray
    failed: set = field(default_factory=set)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (len(self.row_labels), len(self.col_labels))
        if self.values.shape != expected:
            raise ValueError(
                f"heatmap shape {self.values.shape} != labels {expected}"
            )

    @classmethod
    def from_cells(
        cls,
        cells: dict[tuple[str, str], float],
        row_labels: list[str] | None = None,
        col_labels: list[str] | None = None,
        failed: set | None = None,
    ) -> "Heatmap":
        """Build from a sparse {(row, col): value} mapping."""
        rows = row_labels or sorted({r for r, _ in cells})
        cols = col_labels or sorted({c for _, c in cells})
        values = np.full((len(rows), len(cols)), np.nan)
        for (row, col), value in cells.items():
            if row in rows and col in cols:
                values[rows.index(row), cols.index(col)] = value
        kept_failed = {
            (row, col)
            for row, col in (failed or set())
            if row in rows and col in cols
        }
        return cls(rows, cols, values, failed=kept_failed)

    def cell(self, row: str, col: str) -> float:
        return float(
            self.values[self.row_labels.index(row), self.col_labels.index(col)]
        )

    def render(self, *, decimals: int = 2) -> str:
        """Aligned text grid; '--' marks missing cells, '!!' failed
        ones (a footnote explains the glyph when any are present)."""
        width = max(
            [decimals + 3]
            + [len(label) for label in self.col_labels]
        ) + 1
        row_width = max(map(len, self.row_labels), default=0) + 1
        out = [" " * row_width + "".join(
            f"{label:>{width}}" for label in self.col_labels
        )]
        for i, row_label in enumerate(self.row_labels):
            cells = []
            for j in range(len(self.col_labels)):
                value = self.values[i, j]
                has_failure = (row_label, self.col_labels[j]) in self.failed
                if math.isnan(value):
                    mark = "!!" if has_failure else "--"
                    cells.append(f"{mark:>{width}}")
                else:
                    shade = _SHADES[
                        min(int(np.clip(value, 0, 1) * len(_SHADES)),
                            len(_SHADES) - 1)
                    ]
                    # a valued cell with failures behind it keeps its
                    # number but trades the shade for a warning mark
                    mark = "!" if has_failure else shade
                    cells.append(f"{value:.{decimals}f}{mark}".rjust(width))
            out.append(f"{row_label:<{row_width}}" + "".join(cells))
        if self.failed:
            out.append(
                f"({len(self.failed)} failed cell(s): '!!' = no data, "
                f"'!' = partial data)"
            )
        return "\n".join(out)

    def to_csv(self) -> str:
        """CSV with row labels in the first column."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow([""] + self.col_labels)
        for i, row_label in enumerate(self.row_labels):
            row = []
            for j, value in enumerate(self.values[i]):
                if (row_label, self.col_labels[j]) in self.failed and (
                    math.isnan(value)
                ):
                    row.append("failed")
                elif math.isnan(value):
                    row.append("")
                else:
                    row.append(f"{value:.6f}")
            writer.writerow([row_label] + row)
        return buffer.getvalue()

    def row_means(self) -> dict[str, float]:
        """Mean score per row, ignoring missing cells."""
        out = {}
        for i, label in enumerate(self.row_labels):
            row = self.values[i]
            live = row[~np.isnan(row)]
            out[label] = float(live.mean()) if len(live) else float("nan")
        return out


@dataclass
class BoxData:
    """Per-group score distributions (the paper's box plots)."""

    groups: dict[str, list[float]] = field(default_factory=dict)

    def add(self, group: str, value: float) -> None:
        self.groups.setdefault(group, []).append(value)

    def summary(self) -> dict[str, dict[str, float]]:
        """min/q1/median/q3/max per group."""
        out = {}
        for group, values in sorted(self.groups.items()):
            array = np.asarray(values)
            out[group] = {
                "min": float(array.min()),
                "q1": float(np.percentile(array, 25)),
                "median": float(np.median(array)),
                "q3": float(np.percentile(array, 75)),
                "max": float(array.max()),
                "n": int(len(array)),
            }
        return out

    def render(self, *, decimals: int = 2) -> str:
        lines = [
            f"{'group':<8} {'min':>6} {'q1':>6} {'med':>6} {'q3':>6} "
            f"{'max':>6} {'n':>4}"
        ]
        for group, stats in self.summary().items():
            lines.append(
                f"{group:<8} {stats['min']:>6.{decimals}f} "
                f"{stats['q1']:>6.{decimals}f} {stats['median']:>6.{decimals}f} "
                f"{stats['q3']:>6.{decimals}f} {stats['max']:>6.{decimals}f} "
                f"{stats['n']:>4}"
            )
        return "\n".join(lines)
