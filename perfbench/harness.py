"""Timed and traced runs of one workload against the ``ambistl`` public API.

One caller drives a closed loop: each op starts when the previous one has
returned and been checked.  The loop runs whole passes over the workload's
op list until the timed wall time reaches the requested seconds.  Checks
run between ops, outside the timed region, and a failed check or an
exception is counted rather than aborting the run.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from ambistl import (
    Trajectory,
    evaluate_candidates,
    load_default_lexicon,
    load_regions,
    load_trajectory,
    parse_formula,
    parse_nbest,
    robustness,
    tokenize,
    translate,
)
from oracle import brute_force_robustness

from checks import (
    OK,
    RAISED,
    WRONG,
    Verdict,
    canonical_key,
    check_candidates,
    check_report,
    kstep_readings,
    oracle_agrees,
    read_boxes,
    read_expectations,
    worst,
)
from inputs import EXPECTATIONS_TSV, REGIONS_TXT, Inputs
from tracing import Tracer, traced_translate

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SPANS_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120
LEXICON_SAMPLES = 5
TAIL_BEYOND = 10
ORACLE_SAMPLE = 8
STAGE_COVER_TOLERANCE = 0.10
# ROADMAP item 4 names these two robustness cases; the grammar emits no U.
STL_CASES = {
    "stl.op_ms.G_F_T10000": ("G[0,9979] F[0,20] phi_b", 10**4),
    "stl.op_ms.U_T1000": ("U[0,300](!phi_a, phi_b)", 10**3),
}
STL_CASE_SAMPLES = 3


# ---------------------------------------------------------------------------
# Ops: one unit of timed work each, with its traced variant and its check.


class TranslateOp:
    """``translate(sentence, lexicon)`` with the default n-best (corpus, kstep)."""

    def __init__(self, label: str, sentence: str, licensed: frozenset[str], lexicon) -> None:
        self.label, self.sentence, self.licensed, self.lexicon = label, sentence, licensed, lexicon

    def run(self):
        return translate(self.sentence, self.lexicon)

    def traced(self, tracer: Tracer):
        return traced_translate(tracer, self.sentence, self.lexicon)

    def check(self, candidate_set) -> Verdict:
        return check_candidates(candidate_set, self.licensed)


class ReportCheck:
    """Checks a robustness report and remembers the first one for the oracle:
    every later report of the same op must repeat its values exactly."""

    def __init__(self, states: np.ndarray) -> None:
        self.states = states
        self.first: tuple | None = None  # (candidate_set, values)

    def check(self, report, candidate_set) -> Verdict:
        verdict = check_report(report, candidate_set)
        if verdict.status != OK:
            return verdict
        values = tuple(row.robustness for row in report.rows)
        if self.first is None:
            self.first = (candidate_set, values)
        elif values != self.first[1]:
            return Verdict(WRONG, 0, f"robustness changed between calls: {values} vs {self.first[1]}")
        return verdict

    def oracle_rows(self):
        if self.first is not None:
            candidate_set, values = self.first
            for cand, value in zip(candidate_set.candidates, values):
                yield cand.formula, self.states, value


class MonitorOp:
    """``evaluate_candidates(candidate_set, trajectory, regions)`` on a set
    translated during set-up."""

    def __init__(self, label: str, candidate_set, states: np.ndarray, regions) -> None:
        self.label, self.candidate_set, self.regions = label, candidate_set, regions
        self.trajectory = Trajectory(states)
        self.reports = ReportCheck(states)

    def run(self):
        return evaluate_candidates(self.candidate_set, self.trajectory, self.regions)

    def traced(self, tracer: Tracer):
        with tracer.span("trajectory.evaluate_candidates"):
            return self.run()

    def check(self, report) -> Verdict:
        return self.reports.check(report, self.candidate_set)

    def oracle_rows(self):
        return self.reports.oracle_rows()


class EvalOp:
    """What ``ambistl eval`` does after opening its files: load the CSV,
    translate, evaluate."""

    def __init__(self, label, sentence, csv_text, states, licensed, lexicon, regions) -> None:
        self.label, self.sentence, self.csv_text = label, sentence, csv_text
        self.states, self.licensed, self.lexicon, self.regions = states, licensed, lexicon, regions
        self.reports = ReportCheck(states)

    def run(self):
        trajectory = load_trajectory(self.csv_text)
        candidate_set = translate(self.sentence, self.lexicon)
        return trajectory, candidate_set, evaluate_candidates(candidate_set, trajectory, self.regions)

    def traced(self, tracer: Tracer):
        with tracer.span("trajectory.load_trajectory"):
            trajectory = load_trajectory(self.csv_text)
        candidate_set = traced_translate(tracer, self.sentence, self.lexicon)
        with tracer.span("trajectory.evaluate_candidates"):
            report = evaluate_candidates(candidate_set, trajectory, self.regions)
        return trajectory, candidate_set, report

    def check(self, output) -> Verdict:
        trajectory, candidate_set, report = output
        loaded = Verdict(OK)
        if not np.array_equal(trajectory.states, self.states):
            loaded = Verdict(WRONG, 0, "loaded trajectory differs from the CSV text")
        translated = check_candidates(candidate_set, self.licensed)
        evaluated = self.reports.check(report, candidate_set)
        return worst(loaded, translated, evaluated)

    def oracle_rows(self):
        return self.reports.oracle_rows()


@dataclass
class Program:
    """What set-up leaves behind for the timed loop."""

    lexicon: object
    regions: object
    ops: list = field(default_factory=list)


def set_up(inputs: Inputs) -> Program:
    """The untimed twin of the set-up that ``setup_s`` measures, then the ops."""
    lexicon = load_default_lexicon()
    regions = load_regions(inputs.regions_text)
    program = Program(lexicon, regions)
    expected = read_expectations(ROOT / EXPECTATIONS_TSV)
    if inputs.workload == "corpus":
        program.ops = [TranslateOp(sid, s, expected[sid], lexicon) for sid, s in inputs.sentences]
    elif inputs.workload == "kstep":
        for step in inputs.ksteps:
            licensed = frozenset(canonical_key(f) for f in kstep_readings(step.regions, step.bounds))
            program.ops.append(TranslateOp(f"k={len(step.regions)}", step.sentence, licensed, lexicon))
    elif inputs.workload == "monitor":
        for pair in inputs.pairs:
            candidate_set = translate(pair.sentence, lexicon)
            program.ops.append(MonitorOp(pair.label, candidate_set, pair.states, regions))
    elif inputs.workload == "eval":
        program.ops = [
            EvalOp(p.label, p.sentence, p.csv_text, p.states, expected[p.label], lexicon, regions)
            for p in inputs.pairs
        ]
    return program


# ---------------------------------------------------------------------------
# Bookkeeping of op outcomes.


class Tally:
    """Counts attempted and failed ops per op label."""

    def __init__(self) -> None:
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.incorrect: set[str] = set()
        self.details: dict[str, int] = defaultdict(int)  # failure message -> occurrences

    def record(self, label: str, verdict: Verdict) -> None:
        self.attempted[label] += 1
        if verdict.status != OK:
            self.failed[label] += 1
            if verdict.status in (WRONG, RAISED):
                self.incorrect.add(label)
            self.details[f"{label}: {verdict.status}: {verdict.detail}"] += 1

    def fail_all(self, label: str, detail: str) -> None:
        """An after-the-loop check found every output of ``label`` wrong."""
        self.failed[label] = self.attempted[label]
        self.incorrect.add(label)
        self.details[f"{label}: {WRONG}: {detail}"] += 1

    @property
    def total(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())


def call(op, tracer: Tracer | None):
    """Run one op; returns (output, wall s, cpu s, verdict-or-None)."""
    cpu0 = process_time()
    start = perf_counter()
    try:
        if tracer is None:
            output = op.run()
        else:
            with tracer.op():
                output = op.traced(tracer)
    except Exception as exc:  # counted as a failed op; the run goes on
        wall, cpu = perf_counter() - start, process_time() - cpu0
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return None, wall, cpu, Verdict(RAISED, 0, detail)
    return output, perf_counter() - start, process_time() - cpu0, None


def run_pass(ops, tally: Tally, tracer: Tracer | None = None) -> tuple[list[float], list[float], int]:
    """One pass over the ops; returns wall and cpu seconds per op and readings lost."""
    walls, cpus, lost = [], [], 0
    for op in ops:
        output, wall, cpu, verdict = call(op, tracer)
        if verdict is None:
            verdict = op.check(output)
        tally.record(op.label, verdict)
        walls.append(wall)
        cpus.append(cpu)
        lost += verdict.readings_lost
    return walls, cpus, lost


def oracle_sample(ops, tally: Tally, regions_text: str, seed: int) -> int:
    """Compare a seeded sample of report rows with the brute-force oracle."""
    rows = [(op.label, *row) for op in ops if hasattr(op, "oracle_rows") for row in op.oracle_rows()]
    if not rows:
        return 0
    boxes = read_boxes(regions_text)
    sample = random.Random(f"oracle/{seed}").sample(rows, min(ORACLE_SAMPLE, len(rows)))
    for label, formula, states, value in sample:
        if not oracle_agrees(brute_force_robustness, formula, states, boxes, value):
            tally.fail_all(label, f"robustness {value} disagrees with the oracle for {formula}")
    return len(sample)


# ---------------------------------------------------------------------------
# Untimed set-up probes and statistics.


def measure_setup(inputs: Inputs) -> list[float]:
    """Cold set-up times, each in a fresh interpreter run to completion."""
    payload = json.dumps(inputs.setup_sentences())
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(ROOT / REGIONS_TXT)],
            input=payload,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
            cwd=ROOT,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (percentile, nearest-rank value, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)
    return 100 * rank / n, ordered[rank - 1], n - rank


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values after dropping the lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def per_ms(seconds: float, count: int) -> float:
    return seconds / count * 1e3 if count else 0.0


@dataclass
class Result:
    """Outcome of one run.  ``metrics`` go into the final JSON line;
    ``extra`` figures and ``notes`` are printed above it."""

    workload: str
    tally: Tally
    metrics: dict[str, tuple[float, str]]
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def print(self) -> None:
        attempted, failed = self.tally.total
        correct = not self.tally.incorrect
        print(f"workload {self.workload}: {attempted} ops attempted, {failed} failed,"
              f" outputs {'correct' if correct else 'INCORRECT'}")
        for name, (value, unit) in {**self.metrics, **self.extra}.items():
            print(f"  {name:<28} {value:>14.6g} {unit}")
        failures = [f"check failed {n}x: {d}" for d, n in self.tally.details.items()]
        for note in self.notes + failures:
            print(f"  {note}")
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in self.metrics.items()},
        }))


# ---------------------------------------------------------------------------
# The two kinds of run.


def run_untraced(inputs: Inputs, seconds: float) -> Result:
    """End-to-end metrics: set-up probes, a warm-up pass, then timed passes."""
    setup_samples = measure_setup(inputs)
    program = set_up(inputs)
    run_pass(program.ops, Tally())  # warm-up: not timed, not counted
    tally = Tally()
    walls, cpu, readings_lost = [], 0.0, []  # walls: op wall times, one list per pass
    while sum(map(sum, walls)) < seconds:
        pass_walls, pass_cpus, lost = run_pass(program.ops, tally)
        walls.append(pass_walls)
        cpu += sum(pass_cpus)
        readings_lost.append(lost)
    checked = oracle_sample(program.ops, tally, inputs.regions_text, inputs.seed)
    latencies = [w for pass_walls in walls for w in pass_walls]
    per_op = [trimmed_mean(op_walls) for op_walls in zip(*walls)]
    pct, tail_value, beyond = tail(latencies)
    attempted, failed = tally.total
    ops = len(program.ops)
    return Result(
        inputs.workload,
        tally,
        metrics={
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "cpu_ms_per_op": (per_ms(cpu, len(latencies)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        extra={
            "failed_share": (failed / attempted, "ratio"),
            "readings_lost": (float(readings_lost[0]), "count"),
        },
        notes=[
            f"closed loop, one caller: {len(walls)} passes of {ops} ops",
            "latency_p50_ms is the median over ops of each op's latency across passes"
            " (mean of the middle 80% of its samples)",
            f"latency_tail_ms is p{pct:.2f} of {len(latencies)} samples, {beyond} beyond it",
            f"readings_lost counts one pass; setup_s is the median of"
            f" {', '.join(f'{s:.4f}' for s in setup_samples)}",
            f"oracle compared {checked} sampled rows",
        ],
    )


def run_traced(inputs: Inputs, seconds: float) -> Result:
    """Per-layer metrics: untraced and traced passes alternate, so that the
    traced op time can be compared with the untraced one."""
    tracer = Tracer()
    lexicon_ms = []
    for _ in range(LEXICON_SAMPLES):
        start = perf_counter()
        load_default_lexicon()
        lexicon_ms.append((perf_counter() - start) * 1e3)
    program = set_up(inputs)
    run_pass(program.ops, Tally())  # warm-up
    trees, kept = exhaustive_counts(program)
    tally = Tally()
    untraced, traced = [], []  # wall seconds of each pass; the passes alternate
    while sum(untraced) + sum(traced) < seconds:
        untraced.append(sum(run_pass(program.ops, tally)[0]))
        with tracer.robustness_spans():
            traced.append(sum(run_pass(program.ops, tally, tracer)[0]))
    checked = oracle_sample(program.ops, tally, inputs.regions_text, inputs.seed)
    cases = stl_cases(inputs, program, tally) if inputs.workload == "monitor" else {}
    tracer.write(SPANS_DIR / f"spans-{inputs.workload}-seed{inputs.seed}.jsonl")

    times = tracer.self_times()
    n = len(program.ops)
    ops = n * len(traced)

    def layer_ms(name: str) -> float:
        return per_ms(times.get(name, (0.0, 0))[0], ops)

    def spans(name: str) -> int:
        return times.get(name, (0.0, 0))[1]

    # Compare each traced pass with the untraced pass just before it, and take
    # the median over the pairs, so that one preempted pass cannot move them.
    by_op = tracer.stage_time_by_op()
    stages = [sum(by_op[i : i + n]) for i in range(0, ops, n)]
    cover = statistics.median(s / u for s, u in zip(stages, untraced))
    overhead_ms = statistics.median(per_ms(t - u, n) for t, u in zip(traced, untraced))
    stage_ms, untraced_ms = per_ms(statistics.median(stages), n), per_ms(statistics.median(untraced), n)
    robustness_s, robustness_calls = times.get("stl.robustness", (0.0, 0))
    metrics = {
        "lexicon.load_ms": (statistics.median(lexicon_ms), "ms"),
        "parser.parse_ms": (layer_ms("parser.parse_nbest"), "ms"),
        "parser.trees": (sum(trees) / len(trees) if trees else 0.0, "count"),
        "parser.truncated_share": (1 - sum(kept) / sum(trees) if trees else 0.0, "ratio"),
        "semantics.compose_ms": (layer_ms("semantics.compose"), "ms"),
        "semantics.composed": (spans("semantics.compose") / ops, "count"),
        "pipeline.wellformed_ratio": (
            tracer.counts["pipeline.wellformed"] / spans("semantics.compose")
            if spans("semantics.compose") else 0.0,
            "ratio",
        ),
        "pipeline.to_stl_ms": (layer_ms("pipeline.to_stl"), "ms"),
        "pipeline.aggregate_ms": (layer_ms("pipeline.aggregate"), "ms"),
        "pipeline.candidates": (tracer.counts["pipeline.candidates"] / ops, "count"),
        "stl.canonicalize_ms": (layer_ms("stl.canonicalize"), "ms"),
        "stl.robustness_ms": (per_ms(robustness_s, robustness_calls), "ms"),
        **{name: (cases.get(name, 0.0), "ms") for name in STL_CASES},
        "trajectory.load_ms": (layer_ms("trajectory.load_trajectory"), "ms"),
        "trajectory.evaluate_self_ms": (layer_ms("trajectory.evaluate_candidates"), "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
        "trace.stage_cover": (cover, "ratio"),
    }
    within = abs(cover - 1) <= STAGE_COVER_TOLERANCE
    return Result(
        inputs.workload,
        tally,
        metrics,
        notes=[
            f"{len(traced)} traced and {len(untraced)} untraced passes of {n} ops, alternating",
            f"stage self times {stage_ms:.4f} ms/op vs untraced op {untraced_ms:.4f} ms/op"
            f" (medians over passes): cover {cover:.4f}"
            f" ({'within' if within else 'OUTSIDE'} {STAGE_COVER_TOLERANCE:.0%})",
            f"tracing overhead {overhead_ms:.4f} ms/op",
            f"oracle compared {checked} sampled rows",
        ],
    )


def exhaustive_counts(program: Program) -> tuple[list[int], list[int]]:
    """Complete parse trees and kept derivations per translated sentence, untimed."""
    trees, kept = [], []
    for op in program.ops:
        if isinstance(op, (TranslateOp, EvalOp)):
            tokens = tokenize(op.sentence)
            trees.append(len(parse_nbest(tokens, program.lexicon, n=sys.maxsize)))
            kept.append(len(parse_nbest(tokens, program.lexicon)))
    return trees, kept


def stl_cases(inputs: Inputs, program: Program, tally: Tally) -> dict[str, float]:
    """Median ms of parse_formula + robustness on the two operator cases,
    on the monitor's own trajectories; each value is checked by the oracle."""
    walks = {len(p.states): p.states for p in inputs.pairs}
    boxes = read_boxes(inputs.regions_text)
    results = {}
    for name, (text, length) in STL_CASES.items():
        trajectory = Trajectory(walks[length])
        samples = []
        for _ in range(STL_CASE_SAMPLES):
            start = perf_counter()
            formula = parse_formula(text)
            value = robustness(formula, trajectory, program.regions, 0)
            samples.append((perf_counter() - start) * 1e3)
        if not oracle_agrees(brute_force_robustness, formula, walks[length], boxes, value):
            tally.fail_all(name, f"robustness {value} of {text} disagrees with the oracle")
        results[name] = statistics.median(samples)
    return results
