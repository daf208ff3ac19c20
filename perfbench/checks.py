"""Output checks against references that do not come from the code under test.

The references are ``expectations.tsv`` for corpus sentences, readings of
the k-step family built here by hand with the ``ambistl.stl`` constructors,
and the brute-force robustness oracle in ``tests/oracle.py``.  Formulas
returned by the program are compared through :func:`canonical_key`, an
independent rendering of the canonical form that ``expectations.tsv``
records: double negation removed, nested conjunctions and disjunctions
flattened, siblings deduplicated and sorted by their rendering.

A check returns a :class:`Verdict`.  An output that is incomplete (a
licensed reading is missing) fails its check; an output that is wrong (an
unlicensed reading, probabilities that do not sum to one, a robustness
value that disagrees with the oracle) also makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from ambistl.stl import And, Atom, F, Formula, G, Interval, Not, Or, TrueF, Until

PROBABILITY_TOLERANCE = 1e-12
ORACLE_TOLERANCE = 1e-12

OK, INCOMPLETE, WRONG, RAISED = "ok", "incomplete", "wrong", "raised"


@dataclass(frozen=True)
class Verdict:
    status: str
    readings_lost: int = 0
    detail: str = ""


def worst(*verdicts: Verdict) -> Verdict:
    order = (OK, INCOMPLETE, WRONG, RAISED)
    return max(verdicts, key=lambda v: order.index(v.status))


def canonical_key(formula: Formula) -> str:
    """Canonical rendering of ``formula`` in the grammar of ``expectations.tsv``."""
    while isinstance(formula, Not) and isinstance(formula.child, Not):
        formula = formula.child.child
    if isinstance(formula, TrueF):
        return "true"
    if isinstance(formula, Atom):
        return f"phi_{formula.name}"
    if isinstance(formula, Not):
        return "!" + canonical_key(formula.child)
    if isinstance(formula, (And, Or)):
        keys = sorted(set(_flat_keys(formula, type(formula))))
        if len(keys) == 1:
            return keys[0]
        joiner = " & " if isinstance(formula, And) else " | "
        return "(" + joiner.join(keys) + ")"
    if isinstance(formula, (F, G)):
        body = canonical_key(formula.child)
        op = "F" if isinstance(formula, F) else "G"
        sep = "" if body.startswith("(") else " "
        return f"{op}[{formula.interval.lo},{formula.interval.hi}]{sep}{body}"
    if isinstance(formula, Until):
        left, right = canonical_key(formula.left), canonical_key(formula.right)
        return f"U[{formula.interval.lo},{formula.interval.hi}]({left}, {right})"
    raise TypeError(f"not a formula: {formula!r}")


def _flat_keys(formula: Formula, kind: type) -> list[str]:
    keys = []
    for child in formula.children:
        while isinstance(child, Not) and isinstance(child.child, Not):
            child = child.child.child
        if isinstance(child, kind):
            keys.extend(_flat_keys(child, kind))
        else:
            keys.append(canonical_key(child))
    return keys


def read_expectations(path: Path) -> dict[str, frozenset[str]]:
    """Licensed canonical formulas per corpus id, from ``expectations.tsv``."""
    expected = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        sid, count, formulas = line.split("\t")
        readings = frozenset(f.strip() for f in formulas.split(";") if f.strip())
        if len(readings) != int(count):
            raise ValueError(f"{path}: {sid} lists {len(readings)} formulas but count {count}")
        expected[sid] = readings
    return expected


def kstep_readings(regions: tuple[str, ...], bounds: tuple[int, ...], avoid: str = "a") -> list[Formula]:
    """The k licensed readings of ``reach X1 within N1 ... and then reach Xk
    within Nk while avoiding a``, built by hand.

    In reading j (j = 1..k) the avoid clause guards the last j tasks and its
    window is the sum of their bounds.  For j = k the guard conjoins the
    whole chain; for j < k it is a conjunct inside the eventually of task
    k - j.  The cases k = 2 and k = 3 are corpus sentences S10 and S11.
    """
    k = len(regions)
    if k != len(bounds) or k < 2:
        raise ValueError("need at least two tasks, one bound each")

    def guard(window: int) -> Formula:
        return G(Interval(0, window), Not(Atom(avoid)))

    def chain(i: int, guarded_task: int) -> Formula:
        """Eventually-chain from task ``i`` (0-based), guarding inside task ``guarded_task``."""
        conjuncts: list[Formula] = [Atom(regions[i])]
        if i + 1 < k:
            conjuncts.append(chain(i + 1, guarded_task))
        if i == guarded_task:
            conjuncts.append(guard(sum(bounds[i + 1 :])))
        body = And(tuple(conjuncts)) if len(conjuncts) > 1 else conjuncts[0]
        return F(Interval(0, bounds[i]), body)

    readings = [chain(0, k - j - 1) for j in range(1, k)]
    readings.append(And((chain(0, -1), guard(sum(bounds)))))
    return readings


def check_candidates(candidate_set, licensed: frozenset[str]) -> Verdict:
    """A candidate set must hold only licensed readings, each once, with
    probabilities that sum to one; a missing licensed reading is a loss."""
    keys = [canonical_key(c.formula) for c in candidate_set.candidates]
    probabilities = [c.probability for c in candidate_set.candidates]
    lost = len(licensed - set(keys))
    if len(set(keys)) != len(keys):
        return Verdict(WRONG, lost, f"duplicate readings {keys}")
    if not set(keys) <= licensed:
        return Verdict(WRONG, lost, f"unlicensed readings {sorted(set(keys) - licensed)}")
    if abs(math.fsum(probabilities) - 1.0) > PROBABILITY_TOLERANCE or min(probabilities) <= 0:
        return Verdict(WRONG, lost, f"probabilities {probabilities}")
    if lost:
        return Verdict(INCOMPLETE, lost, f"{lost} of {len(licensed)} licensed readings missing")
    return Verdict(OK)


def check_report(report, candidate_set) -> Verdict:
    """Every candidate gets one row with a finite robustness and a verdict
    that agrees with its sign; no row may exceed the horizon."""
    if len(report.rows) != len(candidate_set.candidates):
        return Verdict(WRONG, 0, "row count differs from candidate count")
    for row, cand in zip(report.rows, candidate_set.candidates):
        if row.error is not None:
            return Verdict(WRONG, 0, f"row error: {row.error}")
        if row.probability != cand.probability or not math.isfinite(row.robustness):
            return Verdict(WRONG, 0, f"bad row {row}")
        if row.satisfied != (row.robustness > 0):
            return Verdict(WRONG, 0, f"verdict disagrees with robustness in {row}")
    return Verdict(OK)


def read_boxes(regions_text: str) -> dict[str, tuple[float, float, float, float]]:
    """Raw box coordinates from a regions file, for the oracle."""
    boxes = {}
    for line in regions_text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, _, coords = line.partition(":")
            xmin, ymin, xmax, ymax = (float(v) for v in coords.split())
            boxes[name.strip()] = (xmin, ymin, xmax, ymax)
    return boxes


def oracle_agrees(oracle, formula: Formula, states: np.ndarray, boxes, value: float) -> bool:
    expected = oracle(formula, states.tolist(), boxes, 0)
    return abs(expected - value) <= ORACLE_TOLERANCE
