"""End-to-end translation: sentence -> deduplicated, ranked STL candidates.

Each constructor of the meaning language has one conversion rule here,
which builds its value from the values of its arguments or rejects them as
ill-formed: I builds an interval, F, G, NOT, AND and OR build formulas, and
two symbolic devices are resolved rather than left to reduction:

* SEQ(P, Q) becomes temporal tail insertion: Q is conjoined into the
  innermost reach of P's eventually-chain, so different bracketings of the
  same sequence converge on one formula.  P is canonical, as every
  formula value is, so P may be a guarded task such as ``F(...) & G(...)``
  as long as its canonical form holds exactly one eventually task
  (``F b & F b`` holds one);
* EXTG(guard, anchor) applies the guard to the interval [0, extent(anchor)],
  yielding the avoidance condition that spans its sibling's full horizon.

One interpreter runs the rules: a term compiles into a value, a lambda
into a Python closure, an application into a call and a constructor into
a call of its rule.  Translation is :func:`fill_chart`, a packing pass
(:func:`pack_meanings`) and ranking.  The packing pass is a reader of the
chart walk :func:`~ambistl.parser.inside`: a leaf's value is its entry's
template, beta-reduced and compiled on first use, and a composition is
:func:`apply` of one daughter's value to the other's, with no meaning term
or tree built.  Per chart item, formula values with the same canonical
rendering are merged, carrying the sum of exp(score) and the count of the
derivations behind them, so the candidate set covers every derivation.
The rules build formulas through the canonical constructors of
:mod:`ambistl.stl`, and a formula constant is canonicalized when its
template is compiled, so no formula is canonicalized again.
:func:`analyze` also lists derivations, read off the same chart by
:func:`~ambistl.parser.unpack_nbest`: :func:`compose` builds the meaning
term that ``explain`` prints, and :func:`to_stl` compiles and runs it, so
its formula or discard reason is the one the packing pass computes.

A composition whose value is a closure is evaluated only when a mother
applies it, not under its binder as :func:`compose` reduces: a lexicon
whose templates are not simply typed can see a divergence inside a closure
that is never applied discarded by :func:`translate`, where :func:`compose`
raises :class:`~ambistl.semantics.ReductionBudgetError`.

A sequence whose head holds no eventually task (``avoid A ... and then
...``) has no reading, and a custom lexicon can build a meaning that
contains a lambda, a variable or a stuck application.  Such derivations
are discarded as ill-formed and only counted, with their reasons, which
``explain`` lists.  Surviving formulas are
grouped by canonical form; each group's score is the sum of
exp(derivation score), normalised into probabilities over the whole set;
a lexicon whose weights push a sum out of the normal float range raises
:class:`ScoreRangeError`.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from itertools import count
from types import FunctionType
from typing import Iterator, Optional, Sequence, Union

from .lexicon import LexEntry, Lexicon, load_default_lexicon
from .parser import (
    DEFAULT_N_BEST, Backpointer, Chart, Derivation, DerivationTree, Leaf, fill_chart, inside,
    score_of, tokenize, unpack_nbest,
)
from .record import Record
from .semantics import (
    REDUCTION_BUDGET, App, Con, IntC, Lam, ReductionBudgetError, Term, Var, beta_reduce
)
from .stl import (
    _NODES, And, F, Formula, G, Interval, Or, canonical_form, canonical_junction, canonical_not,
    canonical_temporal, canonicalize, extent, sharing,
)


class IllFormedMeaningError(Exception):
    """The meaning term cannot be converted into a well-formed formula."""


class EmptyCandidateSetError(Exception):
    """Every derivation's meaning was discarded as ill-formed.

    ``n_derivations`` counts the derivations of the chart (0 from
    :func:`aggregate`); raised by :func:`analyze`, ``reports`` holds its
    trace of the derivations, with the reason each was discarded."""

    def __init__(self, message: str, n_derivations: int = 0) -> None:
        super().__init__(message)
        self.n_derivations = n_derivations
        self.reports: list[DerivationReport] = []


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


# Conversion rules: each builds the value of one constructor from the values
# of its arguments, or raises IllFormedMeaningError with the reason.


class _Reason(str):
    """An ill-formed value: the reason its meaning is discarded."""


def _shown(value: object) -> str:
    """``value`` in a reason: a closure by its kind, as its repr holds an address."""
    if type(value) is FunctionType:
        return "function"
    return value._canonical if isinstance(value, Formula) else str(value)


def _formula(value: object) -> Formula:
    if isinstance(value, Formula):
        return value
    if type(value) is _Reason:
        raise IllFormedMeaningError(value)
    raise IllFormedMeaningError(f"{type(value).__name__} is not a formula position")


def _interval(lo: object, hi: object) -> Interval:
    try:
        return Interval(lo, hi)
    except ValueError as exc:
        raise IllFormedMeaningError(str(exc)) from None


def _temporal(kind: type[F] | type[G]):
    def build(interval: object, body: object) -> Formula:
        if type(interval) is not Interval:
            raise IllFormedMeaningError(f"not a literal interval: {_shown(interval)}")
        return canonical_temporal(kind, interval, _formula(body))

    return build


def _seq(first: object, second: object) -> Formula:
    """Tail insertion into the one eventually task of the head."""
    head = _formula(first)
    if _chains(head) != 1:
        raise IllFormedMeaningError("sequence head is not an eventually task")
    return _seq_insert(head, _formula(second))


def _extg(guard: object, anchor: object, steps: Iterator[int]) -> Formula:
    """The guard applied to the window [0, extent(anchor)] within ``steps``."""
    return _formula(_apply(guard, Interval(0, extent(_formula(anchor))), steps))


_RULES = {
    "I": _interval,
    "F": _temporal(F),
    "G": _temporal(G),
    "NOT": lambda body: canonical_not(_formula(body)),
    "AND": lambda left, right: canonical_junction(And, (_formula(left), _formula(right))),
    "OR": lambda left, right: canonical_junction(Or, (_formula(left), _formula(right))),
    "SEQ": _seq,
}


def to_stl(term: Term | Formula) -> Formula:
    """The canonical STL formula of a closed beta-normal meaning term, or
    :class:`IllFormedMeaningError` with the reason it has none.  The term is
    compiled and run as a template, within the limits of :func:`apply`."""
    return _formula(_run(term))


def _chains(chi: Formula) -> int:
    """Eventually tasks conjoined at the top of a canonical ``chi``: a
    canonical conjunction is flat, so they are its ``F`` children."""
    if type(chi) is F:
        return 1
    if type(chi) is And:
        return list(map(type, chi.children)).count(F)
    return 0


def _seq_insert(chi: Formula, tail: Formula) -> Formula:
    """Conjoin ``tail`` into the unique eventually-conjunct of a canonical
    ``chi``, recursively, or directly at ``chi`` when there is none (or
    several).  Every child of a canonical node is canonical, so the walk
    never meets a nested conjunction.  A sharing call's node table memoizes it
    by the pair's identities: each formula of a call is in that table or a template."""
    memo, key = _NODES.get(), ("SEQ", id(chi), id(tail))
    if key in memo:
        return memo[key]
    if type(chi) is F:
        result = canonical_temporal(F, chi.interval, _seq_insert(chi.child, tail))
    elif _chains(chi) == 1:  # a conjunction with one eventually task
        idx = list(map(type, chi.children)).index(F)
        updated = (_seq_insert(chi.children[idx], tail),)
        result = canonical_junction(And, chi.children[:idx] + updated + chi.children[idx + 1 :])
    else:  # a conjunction child gives its members
        result = canonical_junction(And, (chi, tail))
    memo[key] = result
    return result


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


def _pack(merged: dict, value: object, weight: float, count: int) -> None:
    """Add ``count`` derivations of summed exp(score) ``weight`` and value
    ``value`` to a chart item's merged meanings.

    Formulas with the same canonical form are interchangeable in every
    context, so they share an entry keyed by the canonical rendering a
    formula value keeps: conversion is compositional, sequence insertion
    reads the canonical head, and a guard window reads the extent, which
    canonicalization keeps.  A formula entry holds its first meaning, the
    value mothers compose over; every other value (a closure, an integer,
    an interval or the reason of an ill-formed meaning) gets an entry of
    its own.
    """
    if not isinstance(value, Formula):
        merged[object()] = [value, weight, count]
        return
    key = value._canonical
    entry = merged.get(key)
    if entry is None:
        merged[key] = [value, weight, count]
    else:
        entry[1] += weight
        entry[2] += count


# Compiled templates.  A beta-normal template compiles to code, a function
# ``code(env, steps)`` that computes its value: ``env`` holds the values of
# the variables in scope, innermost last, and ``steps`` numbers the
# contractions of one composition.  A value is a closure ``fn(arg, steps)``
# (from a lambda), an integer, an interval, a formula, or a :class:`_Reason`:
# an unbound variable, a stuck application, a rule's rejection, or the first
# reason, left to right, among a constructor's or a stuck call's operands.
# A closure returns a call in tail position as the pair ``(fn, arg)``, which
# :func:`_apply` makes in its loop, so a template that diverges counts
# contractions instead of nesting Python frames (a nested call past the
# recursion limit is no normal form, too).


def _compile(term: Term | Formula, scope: tuple[str, ...] = (), tail: bool = False):
    if isinstance(term, Var) and term.name in scope:
        index = len(scope) - 1 - scope[::-1].index(term.name)
        return lambda env, steps: env[index]
    if isinstance(term, Lam):
        body = _compile(term.body, scope + (term.var,), tail=True)
        return lambda env, steps: lambda arg, steps: body(env + (arg,), steps)
    if isinstance(term, App):
        fn, arg = _compile(term.fn, scope), _compile(term.arg, scope)
        if tail:
            return lambda env, steps: (fn(env, steps), arg(env, steps))
        return lambda env, steps: _apply(fn(env, steps), arg(env, steps), steps)
    if isinstance(term, Con):
        codes = [_compile(arg, scope) for arg in term.args]
        rule = _RULES.get(term.name)  # None for EXTG, which applies its guard

        def construct(env, steps):
            values = [code(env, steps) for code in codes]
            for value in values:
                if type(value) is _Reason:
                    return value
            try:
                return _extg(*values, steps) if rule is None else rule(*values)
            except IllFormedMeaningError as exc:
                return _Reason(exc)

        return construct
    if isinstance(term, Var):
        value = _Reason(f"residual Var in meaning: {term}")
    else:
        value = term.value if isinstance(term, IntC) else canonicalize(term)
    return lambda env, steps: value


def _apply(fn: object, arg: object, steps: Iterator[int]) -> object:
    while type(fn) is FunctionType:
        if next(steps) > REDUCTION_BUDGET:
            raise ReductionBudgetError()
        value = fn(arg, steps)
        if type(value) is not tuple:
            return value
        fn, arg = value
    for value in (fn, arg):
        if type(value) is _Reason:
            return value
    return _Reason(f"residual App in meaning: {_shown(fn)} applied to {_shown(arg)}")


def apply(fn: object, arg: object) -> object:
    """The value of ``fn`` applied to ``arg``, one composition: more than
    :data:`REDUCTION_BUDGET` closure calls, or calls nested past the
    recursion limit, raise :class:`ReductionBudgetError`.  Applying a value
    that is not a closure is stuck and gives the reason, an ill-formed value."""
    try:
        return _apply(fn, arg, count(1))
    except RecursionError:
        raise ReductionBudgetError("the recursion limit") from None


def _run(term: Term | Formula) -> object:
    """The value of a closed term, compiled and run as one composition."""
    try:
        return _compile(term)((), count(1))
    except RecursionError:
        raise ReductionBudgetError("the recursion limit") from None


def _value_of(entry: LexEntry) -> object:
    """The value of an entry's template, normalized with ``beta_reduce``
    and compiled on first use and then kept on the entry."""
    try:
        return entry._value
    except AttributeError:
        value = _run(beta_reduce(entry.template))
        object.__setattr__(entry, "_value", value)  # a cache slot of the immutable entry
        return value


def compose(derivation: Union[Derivation, DerivationTree]) -> Term:
    """Compose lexical templates along a derivation and beta-reduce: the
    meaning term that :func:`analyze` lists, which :func:`translate` never builds.

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


@cache
def _bundled_lexicon() -> Lexicon:
    """The bundled lexicon of calls given none, loaded once per process, so
    its file is read and its templates compiled once."""
    return load_default_lexicon()


@sharing
def analyze(
    sentence: str, lexicon: Optional[Lexicon] = None, n: int = DEFAULT_N_BEST
) -> tuple[CandidateSet, list[DerivationReport]]:
    """The candidate set of :func:`translate`, and a trace of the ``n``
    best derivations, both read off one filled chart.

    Each report carries the canonical formula of its derivation, or the
    reason it was discarded; it belongs to the candidate with that formula.
    """
    chart = fill_chart(tokenize(sentence), _bundled_lexicon() if lexicon is None else lexicon)
    reports: list[DerivationReport] = []
    for index, derivation in enumerate(unpack_nbest(chart, n)):
        meaning = compose(derivation)
        try:
            formula, error = to_stl(meaning), None
        except IllFormedMeaningError as exc:
            formula, error = None, str(exc)
        reports.append(
            DerivationReport(index, derivation.score, derivation.root, meaning, formula, error)
        )
    try:
        return _rank(sentence, *pack_meanings(chart)), reports
    except EmptyCandidateSetError as exc:
        exc.reports = reports
        raise


def _pack_backpointer(merged: dict, item: tuple, back: Backpointer, left: dict, right: dict) -> dict:
    """The meaning reader of :func:`inside`: a lexical entry adds its
    compiled template, a rule :func:`apply` of each of one daughter's
    merged meanings to each of the other's, each product of summed
    exp(score) weighted by the backpointer's own factor."""
    if isinstance(back, LexEntry):
        _pack(merged, _value_of(back), _exp(back.weight), 1)
        return merged
    rule, _, _, _, weight, skipped = back
    factor = _exp(score_of(weight, skipped))
    for value_l, weight_l, count_l in left.values():
        for value_r, weight_r, count_r in right.values():
            value = apply(value_l, value_r) if rule == "fa" else apply(value_r, value_l)
            _pack(merged, value, weight_l * weight_r * factor, count_l * count_r)
    return merged


def pack_meanings(chart: Chart) -> tuple[list[tuple[Formula, float, int]], int, int]:
    """The packing pass over a filled chart: every well-formed root reading
    as (canonical formula, summed exp(score), derivation count), with the
    number of derivations and of those discarded as ill-formed.

    Meanings are composed bottom-up by :func:`inside`, over the chart items
    that lie under a root: a leaf's value is its entry's compiled template,
    and a mother's is :func:`apply` of one daughter's value to the other's.
    Interchangeable meanings are merged per item (see :func:`_pack`).
    Each merged meaning carries the sum of exp(score) over its derivations
    and their count, so ranking the result equals aggregating every
    derivation.
    """
    weighted: list[tuple[Formula, float, int]] = []
    total = discarded = 0
    for merged in inside(chart, dict, _pack_backpointer):
        for meaning, weight, count in merged.values():
            total += count
            if isinstance(meaning, Formula):
                weighted.append((meaning, weight, count))
            else:
                discarded += count
    if not weighted:
        raise EmptyCandidateSetError(f"all {total} derivations were discarded as ill-formed", total)
    return weighted, total, discarded


@sharing
def translate(
    sentence: str, lexicon: Optional[Lexicon] = None, n: int = DEFAULT_N_BEST
) -> CandidateSet:
    """Translate a sentence into its ranked candidate set, over every
    derivation: :func:`fill_chart`, :func:`pack_meanings`, then ranking;
    ``n`` has no effect and is accepted for existing callers.  No name
    holds the chart, so it is freed before ranking starts."""
    lex = lexicon if lexicon is not None else _bundled_lexicon()
    return _rank(sentence, *pack_meanings(fill_chart(tokenize(sentence), lex)))
