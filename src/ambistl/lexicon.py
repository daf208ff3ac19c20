"""CCG categories and the lexical inventory.

A lexicon maps surface token sequences (one to three lowercase tokens) to
entries carrying a syntactic category, a log-score weight and a semantic
template.  Several entries per surface form are allowed; that multiplicity
is the source of the ambiguity the parser preserves.  Rule weights for the
combinatory rules live alongside the entries.

The basic categories are NP (a region), NUM, UNIT and four sentence
categories, in the spirit of CCGbank's feature-bearing ``S[dcl]``: S is a
closed formula, T a task that still takes its time interval, D a
disjunction of tasks sharing one interval, and R a time-bounded D.  A
complete parse has a category in ``ROOT_CATEGORIES`` (S or R).  Typed
this way, the bundled entries never put an open task where a formula is
expected, so every complete parse composes to a well-formed meaning.

The line-based file format is::

    # comment
    @rule fa 0.0
    reach | T/NP | 0.0 | lam x. lam i. F(i, x)
    and then | (S\\S)/S | 0.0 | lam q. lam p. SEQ(p, q)

Lines break at ``\\n``, ``\\r`` and ``\\r\\n`` only
(:func:`ambistl.text.lines`), so a form feed or U+2028 inside a line is
whitespace, as in the other line-based files.

Numerals are not listed: any token of at most ``MAX_NUMERAL_DIGITS``
decimal digits (``str.isdecimal``, exactly the digits ``int`` reads)
becomes a NUM leaf carrying its integer value.  A longer digit token is not
a numeral, so unless the lexicon lists it, it is a coverage gap.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence, Union

from .record import Record
from .semantics import (
    IntC, Lam, ReductionBudgetError, Term, beta_reduce, format_term, free_vars, parse_term
)
from .text import TextSource, lines, scan

BASIC_CATEGORIES = ("S", "T", "D", "R", "NP", "NUM", "UNIT")
# Categories a complete parse may have: a closed formula, or a time-bounded
# disjunction of tasks.  T and D still take an interval and are never roots.
ROOT_CATEGORIES = ("S", "R")
# Categories whose meaning still takes its interval as one more argument.
INTERVAL_CATEGORIES = ("T", "D")
FORWARD = "/"
BACKWARD = "\\"

# Combinatory rules the chart parser applies; their weights may be tuned
# in the lexicon file via @rule lines.
KNOWN_RULES = ("fa", "ba")
# The most tokens an entry's surface may hold.
MAX_SURFACE_TOKENS = 3
# The most digits a numeral may have.  Python converts integers of at most
# 4,300 digits to and from text, and a guard's window is the sum of the
# bounds it spans, so numerals stay well below that limit.
MAX_NUMERAL_DIGITS = 4_000


class LexiconError(ValueError):
    """The lexicon source is unusable."""


class LexiconSyntaxError(LexiconError):
    """A lexicon line is malformed; carries the line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class LexiconWarning(UserWarning):
    pass


class CategorySyntaxError(ValueError):
    pass


_CATEGORIES: dict[tuple, Union["Basic", "Slash"]] = {}  # (class, *fields) -> the category


def _interned(cls: type, fields: tuple) -> Union["Basic", "Slash"]:
    """The one ``cls`` category with ``fields``: whichever thread builds it first."""
    cat = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(cat, name, value)
    return _CATEGORIES.setdefault((cls, *fields), cat)


class Basic(Record):
    """A basic category.  Categories are interned: equal categories are one
    object, so equality and hashing are ``object``'s, by identity."""

    __slots__ = ("name",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, name: str) -> "Basic":
        return _interned(cls, (name,))


class Slash(Record):
    """A functor category, interned as :class:`Basic` is."""

    __slots__ = ("slash", "result", "argument")  # slash is FORWARD or BACKWARD
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, slash: str, result: "Category", argument: "Category") -> "Slash":
        return _interned(cls, (slash, result, argument))


Category = Union[Basic, Slash]
# The category of every numeral leaf.
NUM = Basic("NUM")
# A task verb takes a region and yields a task awaiting its interval.
TASK_VERB_CATEGORY = Slash(FORWARD, Basic("T"), Basic("NP"))


def parse_category(text: str) -> Category:
    """Parse ``S``, ``NP``, ``A/B``, ``A\\B`` with parentheses; slashes are
    left-associative."""
    tokens = scan(text, "()/\\", CategorySyntaxError)
    cat, pos = _parse_cat(tokens, 0)
    if pos != len(tokens):
        raise CategorySyntaxError(f"trailing input in category {text!r}")
    return cat


def _parse_cat(tokens: list[str], pos: int) -> tuple[Category, int]:
    cat, pos = _parse_cat_atom(tokens, pos)
    while pos < len(tokens) and tokens[pos] in (FORWARD, BACKWARD):
        slash = tokens[pos]
        arg, pos = _parse_cat_atom(tokens, pos + 1)
        cat = Slash(slash, cat, arg)
    return cat, pos


def _parse_cat_atom(tokens: list[str], pos: int) -> tuple[Category, int]:
    if pos >= len(tokens):
        raise CategorySyntaxError("unexpected end of category")
    tok = tokens[pos]
    if tok == "(":
        cat, pos = _parse_cat(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise CategorySyntaxError("unclosed parenthesis in category")
        return cat, pos + 1
    if tok in BASIC_CATEGORIES:
        return Basic(tok), pos + 1
    raise CategorySyntaxError(f"unknown category atom {tok!r}")


def format_category(cat: Category) -> str:
    if isinstance(cat, Basic):
        return cat.name
    left = format_category(cat.result)
    if isinstance(cat.result, Slash):
        left = f"({left})"
    right = format_category(cat.argument)
    if isinstance(cat.argument, Slash):
        right = f"({right})"
    return f"{left}{cat.slash}{right}"


class LexEntry(Record):
    """One lexical reading: surface tokens, category, weight, template.
    The pipeline keeps the template's compiled value in ``_value``."""

    __slots__ = ("surface", "category", "weight", "template", "_value")

    def __init__(
        self, surface: tuple[str, ...], category: Category, weight: float, template: Term
    ) -> None:
        if not 1 <= len(surface) <= MAX_SURFACE_TOKENS:
            raise LexiconError(f"surface must be 1-{MAX_SURFACE_TOKENS} tokens, got {surface!r}")
        for tok in surface:
            if not tok or tok != tok.lower() or any(c.isspace() for c in tok):
                raise LexiconError(f"bad surface token {tok!r}")
        if free_vars(template):
            raise LexiconError(
                f"template for {' '.join(surface)!r} has free variables: "
                f"{sorted(free_vars(template))}"
            )
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "template", template)


class Lexicon(Record):
    """Immutable multimap from surface forms to entries, plus rule weights."""

    __slots__ = ("entries", "rule_weights", "_task_verbs", "_starting")

    def __init__(
        self,
        entries: dict[tuple[str, ...], tuple[LexEntry, ...]],
        rule_weights: dict[str, float] | None = None,
    ) -> None:
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rule_weights", {} if rule_weights is None else rule_weights)
        task_verbs = frozenset(
            entry.surface[0]
            for entry in self.all_entries()
            if len(entry.surface) == 1 and entry.category == TASK_VERB_CATEGORY
        )
        object.__setattr__(self, "_task_verbs", task_verbs)
        starting: dict[str, list] = {}  # first token -> (surface, entries), longest first
        for surface in sorted(entries, key=len, reverse=True):
            starting.setdefault(surface[0], []).append((surface, entries[surface]))
        object.__setattr__(self, "_starting", starting)

    def all_entries(self) -> Iterable[LexEntry]:
        for group in self.entries.values():
            yield from group

    def rule_weight(self, rule: str) -> float:
        return self.rule_weights.get(rule, 0.0)

    @property
    def task_verbs(self) -> frozenset[str]:
        """Words with a one-token entry of category T/NP, the tokens that
        attachment locality counts."""
        return self._task_verbs


@lru_cache(maxsize=1024)
def numeral_entry(token: str) -> LexEntry:
    """Synthesised NUM leaf for a digit token; its value rides in the
    template.  A token's entry is made once, so its template is compiled once."""
    return LexEntry((token,), NUM, 0.0, IntC(int(token)))


def lookup(lexicon: Lexicon, words: Sequence[str], position: int) -> list[tuple[int, LexEntry]]:
    """All entries whose surface matches at ``position``, longest spans first.

    An empty result means a coverage gap, not an error.
    """
    if position >= len(words):
        raise IndexError(f"position {position} beyond token count {len(words)}")
    matches: list[tuple[int, LexEntry]] = []
    word = words[position]
    for surface, group in lexicon._starting.get(word, ()):
        span = len(surface)
        if span == 1 or tuple(words[position : position + span]) == surface:
            matches += [(span, entry) for entry in group]
    if word.isdecimal() and len(word) <= MAX_NUMERAL_DIGITS:
        matches.append((1, numeral_entry(word)))
    return matches


def _finite_float(text: str) -> float:
    """A weight; NaN or infinite scores would leave n-best without an order."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite weight {text!r}")
    return value


def load_lexicon(source: TextSource) -> Lexicon:
    """Parse a lexicon file or string.

    Raises :class:`LexiconSyntaxError` with the offending line number on
    malformed lines, categories or templates, and :class:`LexiconError` on
    an empty lexicon.  Exact duplicate entries trigger a
    :class:`LexiconWarning` and are kept once.  Categories are interned
    process-wide, so equal categories are one object in every lexicon.
    """
    entries: dict[tuple[str, ...], list[LexEntry]] = {}
    rule_weights: dict[str, float] = {}
    for lineno, raw in enumerate(lines(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@rule"):
            parts = line.split()
            if len(parts) != 3:
                raise LexiconSyntaxError(lineno, "expected '@rule <name> <weight>'")
            try:
                rule_weights[parts[1]] = _finite_float(parts[2])
            except ValueError:
                raise LexiconSyntaxError(lineno, f"bad rule weight {parts[2]!r}") from None
            continue
        fields = [part.strip() for part in line.split("|")]
        if len(fields) != 4:
            raise LexiconSyntaxError(
                lineno, "expected 'surface | category | weight | template'"
            )
        surface = tuple(fields[0].split())
        try:
            category = parse_category(fields[1])
        except CategorySyntaxError as exc:
            raise LexiconSyntaxError(lineno, f"bad category: {exc}") from None
        try:
            weight = _finite_float(fields[2])
        except ValueError:
            raise LexiconSyntaxError(lineno, f"bad weight {fields[2]!r}") from None
        try:
            template = parse_term(fields[3])
        except Exception as exc:
            raise LexiconSyntaxError(lineno, f"bad template: {exc}") from None
        try:
            entry = LexEntry(surface, category, weight, template)
        except LexiconError as exc:
            raise LexiconSyntaxError(lineno, str(exc)) from None
        group = entries.setdefault(surface, [])
        if entry in group:
            warnings.warn(
                f"line {lineno}: duplicate entry for {' '.join(surface)!r}", LexiconWarning
            )
            continue
        group.append(entry)
    if not entries:
        raise LexiconError("empty lexicon")
    return Lexicon(
        entries={k: tuple(v) for k, v in entries.items()},
        rule_weights=rule_weights,
    )


def format_lexicon(lexicon: Lexicon) -> str:
    """Writer for the line format; ``load_lexicon(format_lexicon(lex))``
    round-trips to an equal lexicon."""
    lines = [f"@rule {name} {weight}" for name, weight in sorted(lexicon.rule_weights.items())]
    for entry in lexicon.all_entries():
        lines.append(
            f"{' '.join(entry.surface)} | {format_category(entry.category)} | "
            f"{entry.weight} | {format_term(entry.template)}"
        )
    return "\n".join(lines) + "\n"


def validate_lexicon(lexicon: Lexicon) -> list[str]:
    """Diagnostics: entries that can never combine, templates that do not
    fit their category or have no normal form, and rule weights that are
    defaulted or name no rule the parser applies.

    An entry is dead when some argument category along its curried spine
    can never be produced by any entry (numerals always produce NUM).  A
    template fits its category when its leading lambdas number the
    arguments along the spine, plus one for the interval when the final
    result is in ``INTERVAL_CATEGORIES``.  Returns human-readable notes;
    an empty list means a clean lexicon.
    """
    producible: set[Category] = {e.category for e in lexicon.all_entries()}
    producible.add(NUM)
    changed = True
    while changed:
        changed = False
        for cat in list(producible):
            if isinstance(cat, Slash) and cat.argument in producible and cat.result not in producible:
                producible.add(cat.result)
                changed = True

    diagnostics: list[str] = []
    for entry in lexicon.all_entries():
        cat = entry.category
        while isinstance(cat, Slash):
            if cat.argument not in producible:
                diagnostics.append(
                    f"dead entry '{' '.join(entry.surface)}' ({format_category(entry.category)}): "
                    f"argument category {format_category(cat.argument)} is never produced"
                )
                break
            cat = cat.result
        try:
            beta_reduce(entry.template)
        except ReductionBudgetError as exc:
            diagnostics.append(
                f"template of '{' '.join(entry.surface)}' ({format_category(entry.category)}) "
                f"has no normal form: {exc}"
            )
        arity, result = 0, entry.category
        while isinstance(result, Slash):
            arity, result = arity + 1, result.result
        arity += result.name in INTERVAL_CATEGORIES
        lams, template = 0, entry.template
        while isinstance(template, Lam):
            lams, template = lams + 1, template.body
        if lams != arity:
            diagnostics.append(
                f"template of '{' '.join(entry.surface)}' ({format_category(entry.category)}) "
                f"takes {lams} argument(s) but its category takes {arity}"
            )
    for rule in KNOWN_RULES:
        if rule not in lexicon.rule_weights:
            diagnostics.append(f"rule weight for '{rule}' absent; defaulted to 0.0")
    for rule in lexicon.rule_weights:
        if rule not in KNOWN_RULES:
            diagnostics.append(f"rule weight for unknown rule '{rule}' is never used")
    return diagnostics


def load_default_lexicon() -> Lexicon:
    """The lexicon bundled with the package, covering the navigation corpus."""
    text = resources.files("ambistl.data").joinpath("lexicon.txt").read_text(encoding="utf-8")
    return load_lexicon(text)
