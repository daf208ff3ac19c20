"""End-to-end translation: sentence -> deduplicated, ranked STL candidates.

Conversion turns a beta-normal meaning term into an STL formula or rejects
it as ill-formed.  Two symbolic devices are resolved here rather than
during reduction:

* SEQ(P, Q) becomes temporal tail insertion: the converted Q is conjoined
  into the innermost reach of P's eventually-chain, so different
  bracketings of the same sequence converge on one formula.  The chain is
  followed through nested conjunctions, so P may be a guarded task such
  as ``F(...) & G(...)`` as long as it holds exactly one eventually task;
* EXTG(guard, anchor) applies the guard to the interval [0, extent(anchor)],
  yielding the avoidance condition that spans its sibling's full horizon.

Translation composes meanings over the packed chart rather than over each
derivation: per chart item, meanings that convert to the same formula are
merged, carrying the sum of exp(score) and the count of the derivations
behind them.  The candidate set therefore covers every derivation, however
many the chart packs.

A sequence whose head holds no eventually task (``avoid A ... and then
...``) has no reading, and a custom lexicon can build a meaning that
contains a lambda, a variable or a stuck application.  Such derivations
are discarded as ill-formed and only counted.  Surviving formulas are
canonicalized and grouped; each group's score is the sum of
exp(derivation score), normalised into probabilities over the whole set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .lexicon import Category, LexEntry, Lexicon, load_default_lexicon
from .parser import (
    DEFAULT_N_BEST, LOCALITY_PENALTY, Derivation, DerivationTree, Leaf, fill_chart, parse_nbest,
    skipped_verbs, tokenize,
)
from .semantics import App, AtomC, Con, IntC, Lam, Term, Var, beta_reduce
from .stl import And, Atom, F, Formula, G, Interval, Not, Or, canonicalize, extent, format_formula


class IllFormedMeaningError(Exception):
    """The meaning term cannot be converted into a well-formed formula."""


class EmptyCandidateSetError(Exception):
    """Every derivation's meaning was discarded as ill-formed."""


@dataclass(frozen=True)
class Candidate:
    """One unique formula with its aggregated support."""

    formula: Formula
    score: float
    probability: float
    support_count: int


@dataclass(frozen=True)
class CandidateSet:
    """Ranked unique formulas for one sentence."""

    sentence: str
    candidates: tuple[Candidate, ...]
    n_derivations: int
    discarded_count: int

    def formulas(self) -> list[str]:
        return [format_formula(c.formula) for c in self.candidates]

    def format_table(self) -> str:
        lines = []
        for rank, cand in enumerate(self.candidates, start=1):
            lines.append(f"{rank}  {cand.probability:.6f}  {format_formula(cand.formula)}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "sentence": self.sentence,
            "n_derivations": self.n_derivations,
            "n_discarded": self.discarded_count,
            "candidates": [
                {
                    "formula": format_formula(c.formula),
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


def to_stl(term: Term) -> Formula:
    """Convert a beta-normal meaning term to STL, or raise
    :class:`IllFormedMeaningError`."""
    match term:
        case AtomC(name):
            return Atom(name)
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
            head = to_stl(first)
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
    """Eventually tasks conjoined at the top of ``chi``, counted through
    nested conjunctions."""
    if isinstance(chi, F):
        return 1
    if isinstance(chi, And):
        return sum(_chains(c) for c in chi.children)
    return 0


def _seq_insert(chi: Formula, tail: Formula) -> Formula:
    """Conjoin ``tail`` into the unique eventually-conjunct of ``chi``
    (found through nested conjunctions), recursively, or directly at
    ``chi`` when there is none (or several)."""
    if isinstance(chi, F):
        return F(chi.interval, _seq_insert(chi.child, tail))
    if isinstance(chi, And):
        counts = [_chains(c) for c in chi.children]
        if sum(counts) == 1:
            idx = counts.index(1)
            updated = _seq_insert(chi.children[idx], tail)
            return And(chi.children[:idx] + (updated,) + chi.children[idx + 1 :])
        return And(chi.children + (tail,))
    return And((chi, tail))


def _rank(
    weighted: Sequence[tuple[Formula, float, int]],
    sentence: str,
    n_derivations: int,
    discarded_count: int,
) -> CandidateSet:
    """Group (formula, summed exp(score), derivation count) triples by
    canonical form and normalise the group sums into probabilities."""
    groups: dict[str, list] = {}
    for formula, weight, count in weighted:
        canonical = canonicalize(formula)
        group = groups.setdefault(format_formula(canonical), [canonical, 0.0, 0])
        group[1] += weight
        group[2] += count
    total = sum(weight for _, weight, _ in groups.values())
    candidates = [
        Candidate(formula, weight, weight / total, count)
        for formula, weight, count in groups.values()
    ]
    candidates.sort(key=lambda c: (-c.probability, format_formula(c.formula)))
    return CandidateSet(sentence, tuple(candidates), n_derivations, discarded_count)


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
    ``derivation_ids`` is accepted for existing callers and ignored.
    """
    if not scored:
        raise EmptyCandidateSetError("no well-formed candidates to aggregate")
    return _rank(
        [(formula, math.exp(deriv_score), 1) for formula, deriv_score in scored],
        sentence,
        n_derivations if n_derivations is not None else len(scored),
        discarded_count,
    )


def _pack(merged: dict, meaning: Term, weight: float, count: int) -> None:
    """Add ``count`` derivations of summed exp(score) ``weight`` and meaning
    ``meaning`` to a chart item's merged meanings.

    Meanings that convert to one raw formula are interchangeable in every
    context, since conversion is compositional, so they share an entry;
    every other meaning gets an entry of its own.  Keying by the canonical
    formula would be unsound: sequence insertion reads the unflattened
    conjunction shape.
    """
    formula = None
    if not isinstance(meaning, Lam):
        try:
            formula = to_stl(meaning)
        except IllFormedMeaningError:
            pass
    key = formula if formula is not None else object()
    entry = merged.get(key)
    if entry is None:
        merged[key] = [meaning, weight, count, formula]
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

    def raw(node: DerivationTree) -> Term:
        if isinstance(node, Leaf):
            return node.entry.template
        left, right = raw(node.left), raw(node.right)
        if node.rule == "fa":
            return App(left, right)
        if node.rule == "ba":
            return App(right, left)
        raise ValueError(f"unknown combinatory rule {node.rule!r}")

    return beta_reduce(raw(derivation))


@dataclass(frozen=True)
class DerivationReport:
    """Trace of one derivation through composition and conversion."""

    index: int
    score: float
    root: DerivationTree
    meaning: Term
    formula: Optional[Formula]
    error: Optional[str]


def analyze(
    sentence: str, lexicon: Optional[Lexicon] = None, n: int = DEFAULT_N_BEST
) -> tuple[CandidateSet, list[DerivationReport]]:
    """The candidate set of :func:`translate`, and a trace of the ``n``
    best derivations.

    Each report carries the canonical formula of its derivation, or the
    reason it was discarded; it belongs to the candidate with that formula.
    """
    lex = lexicon if lexicon is not None else load_default_lexicon()
    reports: list[DerivationReport] = []
    for index, derivation in enumerate(parse_nbest(tokenize(sentence), lex, n)):
        meaning = compose(derivation)
        try:
            formula, error = canonicalize(to_stl(meaning)), None
        except IllFormedMeaningError as exc:
            formula, error = None, str(exc)
        reports.append(
            DerivationReport(index, derivation.score, derivation.root, meaning, formula, error)
        )
    return translate(sentence, lex), reports


def translate(
    sentence: str, lexicon: Optional[Lexicon] = None, n: int = DEFAULT_N_BEST
) -> CandidateSet:
    """Translate a sentence into its ranked candidate set, over every
    derivation; ``n`` has no effect and is accepted for existing callers.

    Meanings are composed bottom-up over the packed chart items that lie
    under a root, merging interchangeable meanings per item (see
    :func:`_pack`).  Each merged meaning carries the sum of exp(score)
    over its derivations and their count, so the result equals
    aggregating every derivation.
    """
    lex = lexicon if lexicon is not None else load_default_lexicon()
    chart = fill_chart(tokenize(sentence), lex)
    packed: dict[tuple[int, int, Category], dict] = {}
    for i, j, cat in chart.items_under_roots():
        merged = packed[(i, j, cat)] = {}
        for back in chart.cells[(i, j)][cat]:
            if isinstance(back, LexEntry):
                _pack(merged, beta_reduce(back.template), math.exp(back.weight), 1)
                continue
            rule, k, cat_l, cat_r = back
            skipped = skipped_verbs(rule, chart.words, i, k, lex.task_verbs)
            factor = math.exp(lex.rule_weight(rule) - LOCALITY_PENALTY * skipped)
            for left, weight_l, count_l, _ in packed[(i, k, cat_l)].values():
                for right, weight_r, count_r, _ in packed[(k, j, cat_r)].values():
                    meaning = beta_reduce(App(left, right) if rule == "fa" else App(right, left))
                    _pack(merged, meaning, weight_l * weight_r * factor, count_l * count_r)

    weighted: list[tuple[Formula, float, int]] = []
    total = discarded = 0
    for cat in chart.roots:
        for _, weight, count, formula in packed[(0, len(chart.words), cat)].values():
            total += count
            if formula is None:
                discarded += count
            else:
                weighted.append((formula, weight, count))
    if not weighted:
        raise EmptyCandidateSetError(f"all {total} derivations were discarded as ill-formed")
    return _rank(weighted, sentence, total, discarded)
