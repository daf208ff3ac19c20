"""Reference trajectory loader: one row at a time, every check per row.

This is the loader as it was before :func:`ambistl.trajectory.load_trajectory`
learned to read canonical text with numpy's C parser.  Tests require the
library loader to return an equal array, or to raise the same
:class:`TrajectoryFileError` text, on every input.  Every source is read
whole and broken into lines as a file opened with ``newline=""`` is.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from ambistl.text import TextSource
from ambistl.trajectory import Trajectory, TrajectoryFileError


def reference_load_trajectory(source: TextSource) -> Trajectory:
    """Read a trajectory CSV with header ``t,x,y`` and t = 0, 1, 2, ..."""
    text = source if isinstance(source, str) else source.read()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise TrajectoryFileError("empty trajectory file")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["t", "x", "y"]:
        raise TrajectoryFileError(f"expected header 't,x,y', got {','.join(header)!r}")
    body = rows[1:]
    if not body:
        raise TrajectoryFileError("trajectory has a header but no states")
    points = []
    for expected_t, row in enumerate(body):
        if len(row) != 3:
            raise TrajectoryFileError(f"row {expected_t + 2}: expected 3 columns")
        t_text = row[0].strip()
        try:
            t_val = int(t_text)
        except ValueError:
            raise TrajectoryFileError(f"row {expected_t + 2}: non-integer t {t_text!r}") from None
        if t_val != expected_t:
            raise TrajectoryFileError(
                f"row {expected_t + 2}: expected t={expected_t}, got t={t_val} (gap or reorder)"
            )
        try:
            points.append((float(row[1]), float(row[2])))
        except ValueError:
            raise TrajectoryFileError(f"row {expected_t + 2}: non-numeric coordinate") from None
    states = np.array(points)
    try:
        return Trajectory(states)
    except ValueError:
        first_bad = int(np.argmin(np.isfinite(states).all(axis=1)))
        raise TrajectoryFileError(f"row {first_bad + 2}: non-finite coordinate") from None
