"""Trajectories, their CSV loader, robustness and reports over candidate sets.

This is the one module of the package that imports numpy, and its one
numeric layer: a trajectory is an ``(N, 2)`` array of states, on which the
atom :func:`margins` and :func:`robustness` work.  The formulas and the
regions live in :mod:`ambistl.stl` and :mod:`ambistl.regions`, which import
neither numpy nor this module.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import warnings

import numpy as np

from .pipeline import CandidateSet
from .record import Record
from .regions import Box, RegionMap
from .stl import (
    _TOO_DEEP, And, Atom, EmptyWindowError, F, Formula, FormulaDepthError, G, Interval, Not, Or,
    TrueF, UnknownAtomError, Until, atoms_of, extent,
)
from .text import TextSource, lines


class TrajectoryFileError(ValueError):
    """The trajectory CSV is malformed."""


class Trajectory(Record):
    """Discrete-time sequence of 2-D states, one per unit step from t=0."""

    __slots__ = ("states",)

    def __init__(self, states: np.ndarray) -> None:
        arr = np.asarray(states, dtype=float)
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
    into lines as a file opened with ``newline=""`` is; one leading
    byte-order mark is dropped, as :func:`~ambistl.text.lines` drops it.
    """
    text = source if isinstance(source, str) else source.read()
    states = _canonical_states(text.removeprefix("\ufeff"))
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
        rows = [row for row in csv.reader(lines(text)) if "".join(row).strip()]
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


def margins(box: Box, points: np.ndarray) -> np.ndarray:
    """Signed distance of each row of an (N, 2) array to the nearest face of
    ``box``; positive strictly inside."""
    px, py = points[:, 0], points[:, 1]
    # np.minimum keeps its second argument on a tie, so passing the faces
    # in reverse keeps the first of two equal zeros, as the builtin min does.
    m = np.minimum(box.xmax - px, px - box.xmin)
    return np.minimum(box.ymax - py, np.minimum(py - box.ymin, m))


def robustness(formula: Formula, x: Trajectory, regions: RegionMap, t: int = 0) -> float:
    """Quantitative satisfaction degree of ``formula`` on trajectory ``x`` at time ``t``.

    Positive means satisfied, negative violated.  Atom robustness is the
    signed box margin of the state; boolean connectives take min and max;
    F and G take max and min over the shifted window, clipped to the end
    of the trajectory; U combines both.  A window whose intersection with
    the trajectory is empty raises :class:`EmptyWindowError`, signalling
    that the trajectory is too short to judge the formula at all.

    An atom's margins up to step ``t + extent(formula)`` are computed in
    one numpy pass on its first visit and dropped on return, so the first
    error in evaluation order is raised, :class:`UnknownAtomError` included.
    A ``t`` that is not an integer (a bool or a float included) raises
    :class:`TypeError`.
    """
    if isinstance(t, bool) or not isinstance(t, numbers.Integral):
        raise TypeError(f"time index t must be an integer, got {t!r}")
    horizon = len(x) - 1
    if t < 0 or t > horizon:
        raise EmptyWindowError(f"time index {t} outside trajectory [0,{horizon}]")
    signals = _MarginSignals(x.states[: min(t + extent(formula), horizon) + 1], regions)
    try:
        return _rob(formula, signals, t, horizon)
    except RecursionError:
        raise FormulaDepthError(_TOO_DEEP) from None


class _MarginSignals(dict):
    """Atom name -> margin at each step of ``states``, filled on first lookup."""

    def __init__(self, states: np.ndarray, regions: RegionMap) -> None:
        super().__init__()
        self.states, self.regions = states, regions

    def __missing__(self, name: str) -> list[float]:
        if name not in self.regions:
            raise UnknownAtomError(f"atom '{name}' has no region")
        signal = self[name] = margins(self.regions.boxes[name], self.states).tolist()
        return signal


def _window(t: int, interval: Interval, horizon: int) -> range:
    lo = t + interval.lo
    hi = min(t + interval.hi, horizon)
    if lo > hi:
        raise EmptyWindowError(
            f"window t+{interval} = [{lo},{t + interval.hi}] has no overlap with [0,{horizon}]"
        )
    return range(lo, hi + 1)


def _rob(f: Formula, signals: _MarginSignals, t: int, horizon: int) -> float:
    if isinstance(f, TrueF):
        return math.inf
    if isinstance(f, Atom):
        return signals[f.name][t]
    if isinstance(f, Not):
        return -_rob(f.child, signals, t, horizon)
    if isinstance(f, And):
        return min(_rob(c, signals, t, horizon) for c in f.children)
    if isinstance(f, Or):
        return max(_rob(c, signals, t, horizon) for c in f.children)
    if isinstance(f, F):
        return max(_rob(f.child, signals, t1, horizon) for t1 in _window(t, f.interval, horizon))
    if isinstance(f, G):
        return min(_rob(f.child, signals, t1, horizon) for t1 in _window(t, f.interval, horizon))
    if isinstance(f, Until):  # hold: the running minimum of the left operand over [t, t1]
        window = _window(t, f.interval, horizon)
        best, hold = -math.inf, math.inf
        for t1 in range(t, window.stop):
            hold = min(hold, _rob(f.left, signals, t1, horizon))
            if t1 >= window.start:
                best = max(best, min(_rob(f.right, signals, t1, horizon), hold))
        return best
    raise TypeError(f"not a formula node: {f!r}")


class ReportRow(Record):
    """Robustness of one candidate formula on the trajectory."""

    __slots__ = ("formula", "probability", "robustness", "satisfied", "error")

    def __init__(
        self,
        formula: str,
        probability: float,
        robustness: float | None,
        satisfied: bool | None,
        error: str | None = None,
    ) -> None:
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "robustness", robustness)
        object.__setattr__(self, "satisfied", satisfied)
        object.__setattr__(self, "error", error)


class RobustnessReport(Record):
    """Per-candidate robustness for a whole candidate set."""

    __slots__ = ("sentence", "rows")

    def __init__(self, sentence: str, rows: tuple[ReportRow, ...] = ()) -> None:
        object.__setattr__(self, "sentence", sentence)
        object.__setattr__(self, "rows", rows)

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
                    formula=cand.text,
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
                formula=cand.text,
                probability=cand.probability,
                robustness=value,
                satisfied=value > 0,
            )
        )
    return RobustnessReport(sentence=candidate_set.sentence, rows=tuple(rows))
