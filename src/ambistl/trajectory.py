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
from contextvars import ContextVar

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

    One call evaluates each temporal node (F, G, U) at most once per step:
    its value is kept in a table keyed by node identity and step.  The work
    is the sum, over distinct temporal nodes, of the steps at which each is
    evaluated times its window width, not the product of nested window
    widths.  An atom's margins up to step ``t + extent(formula)`` are
    computed in one numpy pass on its first visit.  An F or G whose operand
    holds no F, G or U (only atoms, True, !, & and |) reads that operand's
    values at every step, a Python list built once per call from the margin
    lists, and takes the builtin max or min of one slice of it: its cost no
    longer grows with its window.  The builtin reductions keep the first of
    equal values, as the per-step recursion does, so even the sign of a zero
    is unchanged.  Only values that were computed go into the table, the
    window is checked before its operand, and the operand's structure before
    any of its atoms is read; margins, lists and table are dropped on
    return.  So the values and the first error in evaluation order are
    those of the plain recursion, :class:`UnknownAtomError` included.  The
    calls that :func:`evaluate_candidates` makes share one table, one set of
    margins and one set of operand lists.
    A ``t`` that is not an integer (a bool or a float included) raises
    :class:`TypeError`.
    """
    if isinstance(t, bool) or not isinstance(t, numbers.Integral):
        raise TypeError(f"time index t must be an integer, got {t!r}")
    horizon = len(x) - 1
    if t < 0 or t > horizon:
        raise EmptyWindowError(f"time index {t} outside trajectory [0,{horizon}]")
    steps = min(t + extent(formula), horizon) + 1
    shared = _SHARED.get()
    fits = shared is not None and shared.x is x and shared.regions is regions
    signals = shared if fits and len(shared.states) >= steps else _MarginSignals(x, regions, steps)
    signals.roots.append(formula)  # alive, its nodes' ids key the table uniquely
    try:
        return _rob(formula, signals, t, horizon)
    except RecursionError:
        raise FormulaDepthError(_TOO_DEEP) from None


class _MarginSignals(dict):
    """Atom name -> margin at each of the first ``steps`` steps of ``x``,
    filled on first lookup; ``temporal`` maps (node id, step) to the value
    of an F, G or U node of one of ``roots`` at that step, and ``operands``
    maps the id of a window's operand to its value at each of those steps,
    or to None if it holds an F, G or U."""

    def __init__(self, x: Trajectory, regions: RegionMap, steps: int) -> None:
        super().__init__()
        self.x, self.regions, self.states = x, regions, x.states[:steps]
        self.temporal: dict[tuple[int, int], float] = {}
        self.operands: dict[int, list[float] | None] = {}
        self.roots: list[Formula] = []

    def __missing__(self, name: str) -> list[float]:
        if name not in self.regions:
            raise UnknownAtomError(f"atom '{name}' has no region")
        signal = self[name] = margins(self.regions.boxes[name], self.states).tolist()
        return signal


# The margins and table that the robustness calls of one evaluate_candidates call share.
_SHARED: ContextVar[_MarginSignals | None] = ContextVar("_SHARED", default=None)


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
    key = (id(f), t)
    value = signals.temporal.get(key)
    if value is not None:
        return value
    if isinstance(f, (F, G)):
        window = _window(t, f.interval, horizon)
        pick = max if isinstance(f, F) else min
        signal = _operand(f.child, signals)
        if signal is not None:
            value = pick(signal[window.start:window.stop])
        else:
            value = pick(_rob(f.child, signals, t1, horizon) for t1 in window)
    elif isinstance(f, Until):  # hold: the running minimum of the left operand over [t, t1]
        window = _window(t, f.interval, horizon)
        value, hold = -math.inf, math.inf
        for t1 in range(t, window.stop):
            hold = min(hold, _rob(f.left, signals, t1, horizon))
            if t1 >= window.start:
                value = max(value, min(_rob(f.right, signals, t1, horizon), hold))
    else:
        raise TypeError(f"not a formula node: {f!r}")
    signals.temporal[key] = value
    return value


def _operand(f: Formula, signals: _MarginSignals) -> list[float] | None:
    """The value of ``f`` at each step if it holds no F, G or U, else None.

    The structure is checked before any atom is read, so a window inside
    ``f`` still raises before an unknown atom that follows it."""
    key = id(f)
    if key not in signals.operands:
        signals.operands[key] = _signal(f, signals) if _temporal_free(f) else None
    return signals.operands[key]


def _temporal_free(f: Formula) -> bool:
    if isinstance(f, (Atom, TrueF)):
        return True
    if isinstance(f, Not):
        return _temporal_free(f.child)
    if isinstance(f, (And, Or)):
        return all(map(_temporal_free, f.children))
    return False


def _signal(f: Formula, signals: _MarginSignals) -> list[float]:
    """The value of temporal-free ``f`` at each step, built once per node.

    The builtin min and max keep the first of equal values, as the
    per-step recursion does, so ties between 0.0 and -0.0 resolve alike."""
    signal = signals.operands.get(id(f))
    if signal is None:
        if isinstance(f, Atom):
            signal = signals[f.name]
        elif isinstance(f, TrueF):
            signal = [math.inf] * len(signals.states)
        elif isinstance(f, Not):
            signal = [-v for v in _signal(f.child, signals)]
        else:
            pick = min if isinstance(f, And) else max
            signal = list(map(pick, *[_signal(c, signals) for c in f.children]))
        signals.operands[id(f)] = signal
    return signal


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
    whole report.  The :func:`robustness` calls share one set of atom
    margins, over the steps up to the largest extent that fits, the lists
    of values of temporal-free window operands, and one table of temporal
    values, so a subformula that candidates share (the pipeline builds it
    once) is evaluated once per step for the whole set; all are dropped on
    return.
    """
    needed: set[str] = set()
    for cand in candidate_set.candidates:
        needed |= atoms_of(cand.formula)
    missing = sorted(needed - regions.names())
    if missing:
        raise UnknownAtomError(f"atoms without regions: {', '.join(missing)}")

    extents = [extent(cand.formula) for cand in candidate_set.candidates]
    steps = max((e for e in extents if e <= x.horizon), default=0) + 1
    rows = []
    token = _SHARED.set(_MarginSignals(x, regions, steps))
    try:
        for cand, needed_horizon in zip(candidate_set.candidates, extents):
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
    finally:
        _SHARED.reset(token)
    return RobustnessReport(sentence=candidate_set.sentence, rows=tuple(rows))
