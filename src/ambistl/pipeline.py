"""End-to-end translation: sentence -> deduplicated, ranked STL candidates.

Conversion turns a beta-normal meaning term into an STL formula or rejects
it as ill-formed.  Two symbolic devices are resolved here rather than
during reduction:

* SEQ(P, Q) becomes temporal tail insertion: the converted Q is conjoined
  into the innermost reach of P's eventually-chain, so different
  bracketings of the same sequence converge on one formula.  P is read
  through its canonical form, so P may be a guarded task such as
  ``F(...) & G(...)`` as long as its canonical form holds exactly one
  eventually task (``F b & F b`` holds one);
* EXTG(guard, anchor) applies the guard to the interval [0, extent(anchor)],
  yielding the avoidance condition that spans its sibling's full horizon.

Translation is :func:`fill_chart`, a packing pass (:func:`pack_meanings`)
and ranking.  The packing pass composes meanings over the packed chart, not
over trees: per chart item, meanings whose formulas have the same
canonical form are merged, carrying the sum of exp(score) and the count of
the derivations behind them, so the candidate set covers every derivation
and no tree is built or walked.  A merged meaning that converted enters
its mothers as its canonical formula, a closed constant of the meaning
language, so a finished formula is composed over, not reduced, converted
or canonicalized again.  Only :func:`analyze` unpacks trees, for those it
lists.

A sequence whose head holds no eventually task (``avoid A ... and then
...``) has no reading, and a custom lexicon can build a meaning that
contains a lambda, a variable or a stuck application.  Such derivations
are discarded as ill-formed and only counted.  Surviving formulas are
grouped by canonical form; each group's score is the sum of
exp(derivation score), normalised into probabilities over the whole set;
a lexicon whose weights push a sum out of the normal float range raises
:class:`ScoreRangeError`.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Sequence, Union

from .lexicon import Category, LexEntry, Lexicon, load_default_lexicon
from .parser import (
    DEFAULT_N_BEST, Chart, Derivation, DerivationTree, Leaf, fill_chart, increment, score_of,
    tokenize, unpack_nbest,
)
from .record import Record
from .semantics import App, Con, IntC, Lam, Term, Var, beta_reduce
from .stl import (
    And, F, Formula, G, Interval, Not, Or, canonical_form, canonicalize, extent
)


class IllFormedMeaningError(Exception):
    """The meaning term cannot be converted into a well-formed formula."""


class EmptyCandidateSetError(Exception):
    """Every derivation's meaning was discarded as ill-formed."""


class ScoreRangeError(ArithmeticError):
    """A candidate's summed exp(score) lies outside the normal float range."""


class Candidate(Record):
    """One unique formula with its aggregated support and its canonical
    rendering, ``format_formula(formula)``."""

    __slots__ = ("formula", "score", "probability", "support_count", "text")

    def __init__(
        self, formula: Formula, score: float, probability: float, support_count: int, text: str
    ) -> None:
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "support_count", support_count)
        object.__setattr__(self, "text", text)


class CandidateSet(Record):
    """Ranked unique formulas for one sentence."""

    __slots__ = ("sentence", "candidates", "n_derivations", "discarded_count")

    def __init__(
        self,
        sentence: str,
        candidates: tuple[Candidate, ...],
        n_derivations: int,
        discarded_count: int,
    ) -> None:
        object.__setattr__(self, "sentence", sentence)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "n_derivations", n_derivations)
        object.__setattr__(self, "discarded_count", discarded_count)

    def formulas(self) -> list[str]:
        return [c.text for c in self.candidates]

    def format_table(self) -> str:
        lines = []
        for rank, cand in enumerate(self.candidates, start=1):
            lines.append(f"{rank}  {cand.probability:.6f}  {cand.text}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "sentence": self.sentence,
            "n_derivations": self.n_derivations,
            "n_discarded": self.discarded_count,
            "candidates": [
                {
                    "formula": c.text,
                    "score": c.score,
                    "probability": c.probability,
                    "support_count": c.support_count,
                }
                for c in self.candidates
            ],
        }


def _interval_of(term: Term) -> Interval:
    match term:
        case Con("I", (IntC(lo), IntC(hi))):
            try:
                return Interval(lo, hi)
            except ValueError as exc:
                raise IllFormedMeaningError(str(exc)) from None
    raise IllFormedMeaningError(f"not a literal interval: {term}")


def to_stl(term: Term | Formula) -> Formula:
    """Convert a beta-normal meaning term to STL, or raise
    :class:`IllFormedMeaningError`; a formula constant is its own value."""
    match term:
        case Formula():
            return term
        case Con("NOT", (body,)):
            return Not(to_stl(body))
        case Con("AND", (left, right)):
            return And((to_stl(left), to_stl(right)))
        case Con("OR", (left, right)):
            return Or((to_stl(left), to_stl(right)))
        case Con("F", (interval, body)):
            return F(_interval_of(interval), to_stl(body))
        case Con("G", (interval, body)):
            return G(_interval_of(interval), to_stl(body))
        case Con("SEQ", (first, second)):
            head = canonicalize(to_stl(first))
            if _chains(head) != 1:
                raise IllFormedMeaningError("sequence head is not an eventually task")
            return _seq_insert(head, to_stl(second))
        case Con("EXTG", (guard, anchor)):
            window = Con("I", (IntC(0), IntC(extent(to_stl(anchor)))))
            return to_stl(beta_reduce(App(guard, window)))
        case Lam() | Var() | App():
            raise IllFormedMeaningError(f"residual {type(term).__name__} in meaning: {term}")
    kind = term.name if isinstance(term, Con) else type(term).__name__
    raise IllFormedMeaningError(f"{kind} is not a formula position")


def _chains(chi: Formula) -> int:
    """Eventually tasks conjoined at the top of a canonical ``chi``: a
    canonical conjunction is flat, so they are its ``F`` children."""
    if type(chi) is F:
        return 1
    if type(chi) is And:
        return sum(type(child) is F for child in chi.children)
    return 0


def _seq_insert(chi: Formula, tail: Formula) -> Formula:
    """Conjoin ``tail`` into the unique eventually-conjunct of a canonical
    ``chi``, recursively, or directly at ``chi`` when there is none (or
    several).  Every child of a canonical node is canonical, so the walk
    never meets a nested conjunction."""
    if type(chi) is F:
        return F(chi.interval, _seq_insert(chi.child, tail))
    if type(chi) is And:
        tasks = [i for i, child in enumerate(chi.children) if type(child) is F]
        if len(tasks) == 1:
            (idx,) = tasks
            updated = _seq_insert(chi.children[idx], tail)
            return And(chi.children[:idx] + (updated,) + chi.children[idx + 1 :])
        return And(chi.children + (tail,))
    return And((chi, tail))


def _exp(score: float) -> float:
    """exp(score), or inf where it overflows; :func:`_rank` rejects both."""
    try:
        return math.exp(score)
    except OverflowError:
        return math.inf


def _rank(
    sentence: str,
    weighted: Sequence[tuple[Formula, float, int]],
    n_derivations: int,
    discarded_count: int,
) -> CandidateSet:
    """Group (formula, summed exp(score), derivation count) triples by
    canonical form and normalise the group sums into probabilities.

    Raises :class:`ScoreRangeError` when a group sum or their total under-
    or overflows the normal float range, which would make the probabilities
    zero, NaN or a division by zero.
    """
    groups: dict[str, list] = {}
    for formula, weight, count in weighted:
        canonical, text = canonical_form(formula)
        group = groups.setdefault(text, [canonical, 0.0, 0])
        group[1] += weight
        group[2] += count
    total = sum(weight for _, weight, _ in groups.values())
    sums = [(name, weight) for name, (_, weight, _) in groups.items()] + [("all candidates", total)]
    for name, weight in sums:
        if not sys.float_info.min <= weight <= sys.float_info.max:
            raise ScoreRangeError(
                f"summed exp(score) of {name} is {weight!r}, outside the float range: "
                "the lexicon weights are too large in magnitude"
            )
    ranked = [
        Candidate(formula, weight, weight / total, count, text)
        for text, (formula, weight, count) in groups.items()
    ]
    ranked.sort(key=lambda cand: (-cand.probability, cand.text))
    return CandidateSet(sentence, tuple(ranked), n_derivations, discarded_count)


def aggregate(
    scored: Sequence[tuple[Formula, float]],
    sentence: str = "",
    n_derivations: Optional[int] = None,
    discarded_count: int = 0,
    derivation_ids: Optional[Sequence[int]] = None,
) -> CandidateSet:
    """Group formulas by canonical form and turn scores into probabilities.

    Each derivation contributes exp(score) to its formula's group, so two
    derivations with equal scores count twice as much as one.  Probabilities
    are the group scores normalised to sum to one.  Candidates are sorted
    by descending probability with the formula rendering as tie-breaker.
    Scores whose exp leaves the float range raise :class:`ScoreRangeError`.
    ``derivation_ids`` is accepted for existing callers and ignored.
    """
    if not scored:
        raise EmptyCandidateSetError("no well-formed candidates to aggregate")
    return _rank(
        sentence,
        [(formula, _exp(deriv_score), 1) for formula, deriv_score in scored],
        n_derivations if n_derivations is not None else len(scored),
        discarded_count,
    )


def _pack(merged: dict, meaning: Term | Formula, weight: float, count: int) -> None:
    """Add ``count`` derivations of summed exp(score) ``weight`` and meaning
    ``meaning`` to a chart item's merged meanings.

    Meanings whose formulas have the same canonical form are
    interchangeable in every context, so they share an entry keyed by the
    canonical rendering: conversion is compositional, sequence insertion
    reads the head's canonical form, and a guard window reads the extent,
    which canonicalization keeps.  A converted entry holds the canonical
    formula of its first meaning, the constant mothers compose over; every
    other meaning gets an entry of its own.
    """
    formula = None
    if not isinstance(meaning, Lam):
        try:
            formula = to_stl(meaning)
        except IllFormedMeaningError:
            pass
    if formula is None:
        merged[object()] = [meaning, weight, count]
        return
    canonical, key = canonical_form(formula)
    entry = merged.get(key)
    if entry is None:
        merged[key] = [canonical, weight, count]
    else:
        entry[1] += weight
        entry[2] += count


def compose(derivation: Union[Derivation, DerivationTree]) -> Term:
    """Compose lexical templates along a derivation and beta-reduce.

    Leaves contribute their entry templates; a forward-application node
    applies the left meaning to the right one, a backward-application node
    the right meaning to the left one.  The result is beta-normal; SEQ and
    EXTG are resolved, and stuck applications and leftover abstractions
    rejected, by :func:`to_stl`.
    """
    if isinstance(derivation, Derivation):
        derivation = derivation.root
    return beta_reduce(_applied_templates(derivation))


def _applied_templates(node: DerivationTree) -> Term:
    if isinstance(node, Leaf):
        return node.entry.template
    left, right = _applied_templates(node.left), _applied_templates(node.right)
    if node.rule == "fa":
        return App(left, right)
    if node.rule == "ba":
        return App(right, left)
    raise ValueError(f"unknown combinatory rule {node.rule!r}")


class DerivationReport(Record):
    """Trace of one derivation through composition and conversion."""

    __slots__ = ("index", "score", "root", "meaning", "formula", "error")

    def __init__(
        self,
        index: int,
        score: float,
        root: DerivationTree,
        meaning: Term,
        formula: Optional[Formula],
        error: Optional[str],
    ) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "meaning", meaning)
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "error", error)


def analyze(
    sentence: str, lexicon: Optional[Lexicon] = None, n: int = DEFAULT_N_BEST
) -> tuple[CandidateSet, list[DerivationReport]]:
    """The candidate set of :func:`translate`, and a trace of the ``n``
    best derivations, both read off one filled chart.

    Each report carries the canonical formula of its derivation, or the
    reason it was discarded; it belongs to the candidate with that formula.
    """
    lex = lexicon if lexicon is not None else load_default_lexicon()
    chart = fill_chart(tokenize(sentence), lex)
    reports: list[DerivationReport] = []
    for index, derivation in enumerate(unpack_nbest(chart, lex, n)):
        meaning = compose(derivation)
        try:
            formula, error = canonicalize(to_stl(meaning)), None
        except IllFormedMeaningError as exc:
            formula, error = None, str(exc)
        reports.append(
            DerivationReport(index, derivation.score, derivation.root, meaning, formula, error)
        )
    return _rank(sentence, *pack_meanings(chart, lex)), reports


def pack_meanings(
    chart: Chart, lexicon: Lexicon
) -> tuple[list[tuple[Formula, float, int]], int, int]:
    """The packing pass over a filled chart: every well-formed root reading
    as (canonical formula, summed exp(score), derivation count), with the
    number of derivations and of those discarded as ill-formed.

    Meanings are composed bottom-up over the chart items that lie under a
    root, merging interchangeable meanings per item (see :func:`_pack`);
    a daughter's converted meaning is passed to the templates of its
    mothers as its canonical formula.
    Each merged meaning carries the sum of exp(score) over its derivations
    and their count, so ranking the result equals aggregating every
    derivation.  An item's meanings are dropped as soon as the last
    backpointer that reads them has been composed, so the pass holds only
    the items some pending mother still needs.
    """
    readers = chart.items_under_roots()  # backpointers left to read each item
    packed: dict[tuple[int, int, Category], dict] = {}
    for i, j, cat in readers:
        merged = packed[(i, j, cat)] = {}
        for back in chart.cells[(i, j)][cat]:
            if isinstance(back, LexEntry):
                _pack(merged, beta_reduce(back.template), _exp(back.weight), 1)
                continue
            rule, k, cat_l, cat_r = back
            factor = _exp(score_of(*increment(lexicon, chart.words, rule, i, k)))
            for left, weight_l, count_l in packed[(i, k, cat_l)].values():
                for right, weight_r, count_r in packed[(k, j, cat_r)].values():
                    meaning = beta_reduce(App(left, right) if rule == "fa" else App(right, left))
                    _pack(merged, meaning, weight_l * weight_r * factor, count_l * count_r)
            for daughter in ((i, k, cat_l), (k, j, cat_r)):
                readers[daughter] -= 1
                if not readers[daughter]:
                    del packed[daughter]

    weighted: list[tuple[Formula, float, int]] = []
    total = discarded = 0
    for cat in chart.roots:
        for meaning, weight, count in packed[(0, len(chart.words), cat)].values():
            total += count
            if isinstance(meaning, Formula):
                weighted.append((meaning, weight, count))
            else:
                discarded += count
    if not weighted:
        raise EmptyCandidateSetError(f"all {total} derivations were discarded as ill-formed")
    return weighted, total, discarded


def translate(
    sentence: str, lexicon: Optional[Lexicon] = None, n: int = DEFAULT_N_BEST
) -> CandidateSet:
    """Translate a sentence into its ranked candidate set, over every
    derivation: :func:`fill_chart`, :func:`pack_meanings`, then ranking;
    ``n`` has no effect and is accepted for existing callers.  No name
    holds the chart, so it is freed before ranking starts."""
    lex = lexicon if lexicon is not None else load_default_lexicon()
    return _rank(sentence, *pack_meanings(fill_chart(tokenize(sentence), lex), lex))
