"""End-to-end translation: sentence -> deduplicated, ranked STL candidates.

Conversion turns a beta-normal meaning term into an STL formula or rejects
it as ill-formed.  Two symbolic devices are resolved here rather than
during reduction:

* SEQ(P, Q) becomes temporal tail insertion: the converted Q is conjoined
  into the innermost reach of P's eventually-chain, so different
  bracketings of the same sequence converge on one formula;
* EXTG(guard, anchor) applies the guard to the interval [0, extent(anchor)],
  yielding the avoidance condition that spans its sibling's full horizon.

The sentence categories of the bundled lexicon make every complete parse
compose to a formula.  A custom lexicon can still build a meaning that
contains a lambda, a variable or a stuck application, or a sequence whose
head is not an eventually task; such a derivation is discarded as
ill-formed and only counted.  Surviving formulas are canonicalized and
grouped; each group's score is the sum of exp(derivation score),
normalised into probabilities over the whole set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .lexicon import Lexicon, load_default_lexicon
from .parser import DEFAULT_N_BEST, DerivationTree, parse_nbest, tokenize
from .semantics import App, AtomC, Con, IntC, Lam, Term, Var, beta_reduce, compose
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
    derivation_ids: tuple[int, ...]


@dataclass(frozen=True)
class CandidateSet:
    """Ranked unique formulas for one sentence."""

    sentence: str
    candidates: tuple[Candidate, ...]
    n_derivations: int
    discarded_count: int
    truncated: bool = False  # n-best cut some derivations before composition

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
            "truncated": self.truncated,
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
            tail = to_stl(second)
            if not isinstance(head, F):
                raise IllFormedMeaningError("sequence head is not an eventually task")
            return F(head.interval, _seq_insert(head.child, tail))
        case Con("EXTG", (guard, anchor)):
            window = Con("I", (IntC(0), IntC(extent(to_stl(anchor)))))
            return to_stl(beta_reduce(App(guard, window)))
        case Lam() | Var() | App():
            raise IllFormedMeaningError(f"residual {type(term).__name__} in meaning: {term}")
    kind = term.name if isinstance(term, Con) else type(term).__name__
    raise IllFormedMeaningError(f"{kind} is not a formula position")


def _seq_insert(chi: Formula, tail: Formula) -> Formula:
    """Conjoin ``tail`` into the unique eventually-conjunct of ``chi``,
    recursively, or directly at ``chi`` when there is none (or several)."""
    if isinstance(chi, F):
        return F(chi.interval, _seq_insert(chi.child, tail))
    if isinstance(chi, And):
        temporal = [i for i, c in enumerate(chi.children) if isinstance(c, F)]
        if len(temporal) == 1:
            idx = temporal[0]
            inner = chi.children[idx]
            assert isinstance(inner, F)
            updated = F(inner.interval, _seq_insert(inner.child, tail))
            children = chi.children[:idx] + (updated,) + chi.children[idx + 1 :]
            return And(children)
        return And(chi.children + (tail,))
    return And((chi, tail))


def aggregate(
    scored: Sequence[tuple[Formula, float]],
    sentence: str = "",
    n_derivations: Optional[int] = None,
    discarded_count: int = 0,
    derivation_ids: Optional[Sequence[int]] = None,
    truncated: bool = False,
) -> CandidateSet:
    """Group formulas by canonical form and turn scores into probabilities.

    Each derivation contributes exp(score) to its formula's group, so two
    derivations with equal scores count twice as much as one.  Probabilities
    are the group scores normalised to sum to one.  Candidates are sorted
    by descending probability with the formula rendering as tie-breaker.
    """
    if not scored:
        raise EmptyCandidateSetError("no well-formed candidates to aggregate")
    ids = list(derivation_ids) if derivation_ids is not None else list(range(len(scored)))
    if len(ids) != len(scored):
        raise ValueError("derivation_ids must align with scored formulas")

    groups: dict[str, dict] = {}
    for (formula, deriv_score), deriv_id in zip(scored, ids):
        canonical = canonicalize(formula)
        key = format_formula(canonical)
        group = groups.setdefault(
            key, {"formula": canonical, "score": 0.0, "ids": []}
        )
        group["score"] += math.exp(deriv_score)
        group["ids"].append(deriv_id)

    total = sum(g["score"] for g in groups.values())
    candidates = [
        Candidate(
            formula=g["formula"],
            score=g["score"],
            probability=g["score"] / total,
            support_count=len(g["ids"]),
            derivation_ids=tuple(g["ids"]),
        )
        for g in groups.values()
    ]
    candidates.sort(key=lambda c: (-c.probability, format_formula(c.formula)))
    return CandidateSet(
        sentence=sentence,
        candidates=tuple(candidates),
        n_derivations=n_derivations if n_derivations is not None else len(scored),
        discarded_count=discarded_count,
        truncated=truncated,
    )


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
    """Run the full pipeline and keep the per-derivation trace.

    One derivation beyond ``n`` is parsed so that the candidate set can say
    whether n-best cut any derivations (``truncated``).
    """
    lex = lexicon if lexicon is not None else load_default_lexicon()
    tokens = tokenize(sentence)
    derivations = parse_nbest(tokens, lex, n + 1)
    truncated = len(derivations) > n
    derivations = derivations[:n]

    reports: list[DerivationReport] = []
    scored: list[tuple[Formula, float]] = []
    ids: list[int] = []
    discarded = 0
    for index, derivation in enumerate(derivations):
        meaning = compose(derivation)
        try:
            formula = to_stl(meaning)
        except IllFormedMeaningError as exc:
            discarded += 1
            reports.append(
                DerivationReport(index, derivation.score, derivation.root, meaning, None, str(exc))
            )
            continue
        scored.append((formula, derivation.score))
        ids.append(index)
        reports.append(
            DerivationReport(
                index, derivation.score, derivation.root, meaning, canonicalize(formula), None
            )
        )
    if not scored:
        raise EmptyCandidateSetError(
            f"all {len(derivations)} derivations were discarded as ill-formed"
        )
    candidate_set = aggregate(
        scored,
        sentence=sentence,
        n_derivations=len(derivations),
        discarded_count=discarded,
        derivation_ids=ids,
        truncated=truncated,
    )
    return candidate_set, reports


def translate(
    sentence: str, lexicon: Optional[Lexicon] = None, n: int = DEFAULT_N_BEST
) -> CandidateSet:
    """Translate a sentence into its ranked candidate set."""
    candidate_set, _ = analyze(sentence, lexicon, n)
    return candidate_set
