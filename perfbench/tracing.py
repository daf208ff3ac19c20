"""Spans around calls into each ``ambistl`` layer, and their self times.

A span records its name, start, end, parent span and op id.  Spans stay in
memory and are written out when the run ends.  Span names are
``<module>.<function>``; the module is the layer.  The root span of an op
is named ``op`` and is not a layer: its self time is the benchmark's own
glue between the stage calls.

Spans are recorded from the benchmark, around the public functions of each
module; the library itself is not instrumented.  Translation is traced by
calling the stages ``analyze`` calls, in the same order, so that each
stage gets its own span.  Robustness calls made inside
``evaluate_candidates`` are traced by wrapping the ``robustness`` name that
``ambistl.trajectory`` calls, for the duration of a traced pass only.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import ambistl.trajectory as trajectory_module
from ambistl import aggregate, canonicalize, compose, parse_nbest, to_stl, tokenize
from ambistl.pipeline import IllFormedMeaningError

ROOT = "op"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """Collects spans of one traced run, plus counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)

    @contextmanager
    def op(self):
        """Root span of one op; spans opened inside it carry its op id."""
        self._op = self._ops
        self._ops += 1
        try:
            with self.span(ROOT):
                yield
        finally:
            self._op = None

    @contextmanager
    def robustness_spans(self):
        """Trace the robustness calls that ``evaluate_candidates`` makes."""
        original = trajectory_module.robustness

        def traced(*args, **kwargs):
            with self.span("stl.robustness"):
                return original(*args, **kwargs)

        trajectory_module.robustness = traced
        try:
            yield
        finally:
            trajectory_module.robustness = original

    def _self_durations(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: total self time in seconds and number of spans."""
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for span, own in zip(self.spans, self._self_durations()):
            totals[span.name][0] += own
            totals[span.name][1] += 1
        return {name: (total, count) for name, (total, count) in totals.items()}

    def stage_time_by_op(self) -> list[float]:
        """Per op id: summed self time of the op's stage spans, its root excluded."""
        stages = [0.0] * self._ops
        for span, own in zip(self.spans, self._self_durations()):
            if span.op is not None and span.name != ROOT:
                stages[span.op] += own
        return stages

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def traced_translate(tracer: Tracer, sentence: str, lexicon):
    """``translate(sentence, lexicon)`` with one span per stage, mirroring
    ``analyze``: tokenize, parse_nbest, then compose and to_stl for each
    derivation (canonicalizing each well-formed formula for its report),
    then aggregate."""
    with tracer.span("parser.tokenize"):
        tokens = tokenize(sentence)
    with tracer.span("parser.parse_nbest"):
        derivations = parse_nbest(tokens, lexicon)
    scored, ids, discarded = [], [], 0
    for index, derivation in enumerate(derivations):
        with tracer.span("semantics.compose"):
            meaning = compose(derivation)
        try:
            with tracer.span("pipeline.to_stl"):
                formula = to_stl(meaning)
        except IllFormedMeaningError:
            discarded += 1
            continue
        with tracer.span("stl.canonicalize"):
            canonicalize(formula)
        scored.append((formula, derivation.score))
        ids.append(index)
    tracer.counts["pipeline.wellformed"] += len(scored)
    with tracer.span("pipeline.aggregate"):
        candidate_set = aggregate(
            scored,
            sentence=sentence,
            n_derivations=len(derivations),
            discarded_count=discarded,
            derivation_ids=ids,
        )
    tracer.counts["pipeline.candidates"] += len(candidate_set.candidates)
    return candidate_set
