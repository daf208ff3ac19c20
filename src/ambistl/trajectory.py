"""Grounding of atoms in 2-D regions and robustness reports for trajectories.

Regions are axis-aligned boxes named after the atoms they ground.  The
signed margin of a point with respect to a box is the smallest distance to
any face, positive inside, zero on the boundary and negative outside, so an
atom holds at a state exactly when its margin is positive.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from typing import IO, Union

import numpy as np

from .pipeline import CandidateSet
from .stl import UnknownAtomError, atoms_of, extent, robustness

TextSource = Union[str, IO[str]]


class RegionFileError(ValueError):
    """The regions file is malformed."""


class TrajectoryFileError(ValueError):
    """The trajectory CSV is malformed."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with nonempty interior."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.xmin, self.ymin, self.xmax, self.ymax))):
            raise ValueError("non-finite coordinate")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(
                f"degenerate box [{self.xmin},{self.xmax}]x[{self.ymin},{self.ymax}]"
            )

    def margins(self, points: np.ndarray) -> np.ndarray:
        """Signed distance of each row of an (N, 2) array to the nearest face."""
        px, py = points[:, 0], points[:, 1]
        # np.minimum keeps its second argument on a tie, so passing the faces
        # in reverse keeps the first of two equal zeros, as the builtin min does.
        m = np.minimum(self.xmax - px, px - self.xmin)
        return np.minimum(self.ymax - py, np.minimum(py - self.ymin, m))

    def margin(self, point) -> float:
        """Signed distance to the nearest face; positive strictly inside."""
        return float(self.margins(np.asarray(point, dtype=float).reshape(1, 2))[0])


@dataclass(frozen=True)
class RegionMap:
    """Mapping from atom names to their grounding boxes."""

    boxes: dict[str, Box]

    def names(self) -> set[str]:
        return set(self.boxes)

    def __contains__(self, name: str) -> bool:
        return name in self.boxes


@dataclass(frozen=True)
class Trajectory:
    """Discrete-time sequence of 2-D states, one per unit step from t=0."""

    states: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.states, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError("trajectory must be a non-empty (N, 2) array")
        if not np.isfinite(arr).all():
            raise ValueError("trajectory coordinates must be finite")
        object.__setattr__(self, "states", arr)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        """Last valid time index T."""
        return len(self) - 1


def _lines(source: TextSource) -> io.StringIO:
    """The source's lines, broken at ``\\n``, ``\\r`` and ``\\r\\n`` only, as in a
    file opened with ``newline=""``."""
    return io.StringIO(source if isinstance(source, str) else source.read(), newline="")


def load_regions(source: TextSource) -> RegionMap:
    """Read a regions file: one ``name: xmin ymin xmax ymax`` per line.

    Blank lines and ``#`` comments are ignored.  Raises
    :class:`RegionFileError` on malformed lines, non-finite or degenerate
    boxes, or duplicate names.
    """
    boxes: dict[str, Box] = {}
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise RegionFileError(f"line {lineno}: expected 'name: xmin ymin xmax ymax'")
        name, _, rest = line.partition(":")
        name = name.strip()
        parts = rest.split()
        if not name or len(parts) != 4:
            raise RegionFileError(f"line {lineno}: expected 'name: xmin ymin xmax ymax'")
        try:
            xmin, ymin, xmax, ymax = (float(p) for p in parts)
        except ValueError:
            raise RegionFileError(f"line {lineno}: non-numeric coordinate") from None
        if name in boxes:
            raise RegionFileError(f"line {lineno}: duplicate region '{name}'")
        try:
            boxes[name] = Box(xmin, ymin, xmax, ymax)
        except ValueError as exc:
            raise RegionFileError(f"line {lineno}: {exc}") from None
    if not boxes:
        raise RegionFileError("empty regions file")
    return RegionMap(boxes)


def load_trajectory(source: TextSource) -> Trajectory:
    """Read a trajectory CSV with header ``t,x,y`` and t = 0, 1, 2, ...

    Raises :class:`TrajectoryFileError` on a missing or wrong header, a gap
    or non-integer time column, a non-finite coordinate, or an empty file,
    naming the first faulty row, and on text the CSV reader rejects.

    Text whose first line is exactly ``t,x,y`` and whose body holds only
    ASCII digits, ``.``, ``,``, ``+``, ``-``, ``e``, ``E`` and ``\\n`` is read by
    numpy's C parser in one call; on that alphabet numpy reads a cell as
    ``int()`` and ``float()`` do.  All other text, and any the C parser
    refuses, goes through the CSV row loop, which returns the same array and
    is the source of every error text.  Every source is read whole and broken
    into lines as a file opened with ``newline=""`` is.
    """
    text = source if isinstance(source, str) else source.read()
    states = _canonical_states(text)
    if states is None:
        states = _states_row_by_row(text)
    try:
        return Trajectory(states)
    except ValueError:
        first_bad = int(np.argmin(np.isfinite(states).all(axis=1)))
        raise TrajectoryFileError(f"row {first_bad + 2}: non-finite coordinate") from None


_CANONICAL_HEADER = "t,x,y\n"
_CANONICAL_BODY_BYTES = b"0123456789.,+-eE\n"
_CANONICAL_ROW = np.dtype([("t", np.int64), ("x", np.float64), ("y", np.float64)])


def _canonical_states(text: str) -> np.ndarray | None:
    """The states of canonical text with t = 0, 1, 2, ..., else None."""
    body = text[len(_CANONICAL_HEADER):]
    if not (
        text.startswith(_CANONICAL_HEADER)
        and body.isascii()
        and not body.encode().translate(None, _CANONICAL_BODY_BYTES)
    ):
        return None
    try:
        # As errors, numpy < 2's warning on parsing "1.0" as int 1 and the
        # warning on an empty body both send the text to the row loop.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                io.StringIO(body), dtype=_CANONICAL_ROW, delimiter=",",
                comments=None, quotechar=None, ndmin=1,
            )
    except (ValueError, Warning):
        return None
    if not np.array_equal(rows["t"], np.arange(len(rows))):
        return None
    return np.column_stack((rows["x"], rows["y"]))


def _states_row_by_row(text: str) -> np.ndarray:
    """The states of any CSV text, or the error of its first faulty row."""
    try:
        rows = [row for row in csv.reader(_lines(text)) if "".join(row).strip()]
    except csv.Error as exc:  # e.g. an unclosed quote swallowing the rest of the file
        raise TrajectoryFileError(f"malformed CSV: {exc}") from None
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
    return np.array(points)


@dataclass(frozen=True)
class ReportRow:
    """Robustness of one candidate formula on the trajectory."""

    formula: str
    probability: float
    robustness: float | None
    satisfied: bool | None
    error: str | None = None


@dataclass(frozen=True)
class RobustnessReport:
    """Per-candidate robustness for a whole candidate set."""

    sentence: str
    rows: tuple[ReportRow, ...] = field(default_factory=tuple)

    def format_table(self) -> str:
        lines = [f"{'rank':>4}  {'prob':>10}  {'robustness':>12}  {'sat':>3}  formula"]
        for rank, row in enumerate(self.rows, start=1):
            if row.error is not None:
                rob_text, sat_text = row.error, "-"
            else:
                rob_text = f"{row.robustness:.6f}"
                sat_text = "yes" if row.satisfied else "no"
            lines.append(
                f"{rank:>4}  {row.probability:>10.6f}  {rob_text:>12}  {sat_text:>3}  {row.formula}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "sentence": self.sentence,
            "candidates": [
                {
                    "formula": row.formula,
                    "probability": row.probability,
                    "robustness": row.robustness,
                    "satisfied": row.satisfied,
                    "error": row.error,
                }
                for row in self.rows
            ],
        }


def evaluate_candidates(
    candidate_set: CandidateSet, x: Trajectory, regions: RegionMap
) -> RobustnessReport:
    """Evaluate every candidate of a set on the trajectory at time 0.

    All atoms must be grounded by ``regions``; an ungrounded atom raises
    :class:`UnknownAtomError` up front.  A candidate whose horizon exceeds
    the trajectory is reported as a per-row error instead of aborting the
    whole report.
    """
    needed: set[str] = set()
    for cand in candidate_set.candidates:
        needed |= atoms_of(cand.formula)
    missing = sorted(needed - regions.names())
    if missing:
        raise UnknownAtomError(f"atoms without regions: {', '.join(missing)}")

    rows = []
    for cand in candidate_set.candidates:
        needed_horizon = extent(cand.formula)
        if needed_horizon > x.horizon:
            rows.append(
                ReportRow(
                    formula=str(cand.formula),
                    probability=cand.probability,
                    robustness=None,
                    satisfied=None,
                    error=f"horizon-exceeded (needs T>={needed_horizon}, trajectory T={x.horizon})",
                )
            )
            continue
        # extent <= horizon keeps every window robustness visits non-empty
        value = robustness(cand.formula, x, regions, 0)
        rows.append(
            ReportRow(
                formula=str(cand.formula),
                probability=cand.probability,
                robustness=value,
                satisfied=value > 0,
            )
        )
    return RobustnessReport(sentence=candidate_set.sentence, rows=tuple(rows))
