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

Numerals are not listed: any token of digits becomes a NUM leaf carrying
its integer value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import IO, Iterable, Sequence, Union

from .semantics import IntC, Lam, Term, format_term, free_vars, parse_term

TextSource = Union[str, IO[str]]

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


@dataclass(frozen=True)
class Basic:
    name: str


@dataclass(frozen=True)
class Slash:
    slash: str  # FORWARD or BACKWARD
    result: "Category"
    argument: "Category"


Category = Union[Basic, Slash]
# A task verb takes a region and yields a task awaiting its interval.
TASK_VERB_CATEGORY = Slash(FORWARD, Basic("T"), Basic("NP"))


def parse_category(text: str) -> Category:
    """Parse ``S``, ``NP``, ``A/B``, ``A\\B`` with parentheses; slashes are
    left-associative."""
    tokens = _lex_category(text)
    cat, pos = _parse_cat(tokens, 0)
    if pos != len(tokens):
        raise CategorySyntaxError(f"trailing input in category {text!r}")
    return cat


def _lex_category(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()/\\":
            tokens.append(ch)
            i += 1
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise CategorySyntaxError(f"unexpected character {ch!r} in category")
    return tokens


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


@dataclass(frozen=True)
class LexEntry:
    """One lexical reading: surface tokens, category, weight, template."""

    surface: tuple[str, ...]
    category: Category
    weight: float
    template: Term

    def __post_init__(self) -> None:
        if not 1 <= len(self.surface) <= 3:
            raise LexiconError(f"surface must be 1-3 tokens, got {self.surface!r}")
        for tok in self.surface:
            if not tok or tok != tok.lower() or any(c.isspace() for c in tok):
                raise LexiconError(f"bad surface token {tok!r}")
        if free_vars(self.template):
            raise LexiconError(
                f"template for {' '.join(self.surface)!r} has free variables: "
                f"{sorted(free_vars(self.template))}"
            )


@dataclass(frozen=True)
class Lexicon:
    """Immutable multimap from surface forms to entries, plus rule weights."""

    entries: dict[tuple[str, ...], tuple[LexEntry, ...]]
    rule_weights: dict[str, float] = field(default_factory=dict)

    def all_entries(self) -> Iterable[LexEntry]:
        for group in self.entries.values():
            yield from group

    def rule_weight(self, rule: str) -> float:
        return self.rule_weights.get(rule, 0.0)

    def max_surface_len(self) -> int:
        return max((len(k) for k in self.entries), default=1)

    @cached_property
    def task_verbs(self) -> frozenset[str]:
        """Words with a one-token entry of category T/NP, the tokens that
        attachment locality counts."""
        return frozenset(
            entry.surface[0]
            for entry in self.all_entries()
            if len(entry.surface) == 1 and entry.category == TASK_VERB_CATEGORY
        )


def numeral_entry(token: str) -> LexEntry:
    """Synthesised NUM leaf for a digit token; its value rides in the template."""
    return LexEntry((token,), Basic("NUM"), 0.0, IntC(int(token)))


def lookup(lexicon: Lexicon, words: Sequence[str], position: int) -> list[tuple[int, LexEntry]]:
    """All entries whose surface matches at ``position``, longest spans first.

    An empty result means a coverage gap, not an error.
    """
    if position >= len(words):
        raise IndexError(f"position {position} beyond token count {len(words)}")
    matches: list[tuple[int, LexEntry]] = []
    longest = min(lexicon.max_surface_len(), len(words) - position)
    for span in range(longest, 0, -1):
        key = tuple(words[position : position + span])
        for entry in lexicon.entries.get(key, ()):
            matches.append((span, entry))
    word = words[position]
    if word.isdigit():
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
    :class:`LexiconWarning` and are kept once.
    """
    text = source if isinstance(source, str) else source.read()
    entries: dict[tuple[str, ...], list[LexEntry]] = {}
    rule_weights: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    fit their category, and defaulted rule weights.

    An entry is dead when some argument category along its curried spine
    can never be produced by any entry (numerals always produce NUM).  A
    template fits its category when its leading lambdas number the
    arguments along the spine, plus one for the interval when the final
    result is in ``INTERVAL_CATEGORIES``.  Returns human-readable notes;
    an empty list means a clean lexicon.
    """
    producible: set[Category] = {e.category for e in lexicon.all_entries()}
    producible.add(Basic("NUM"))
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
    return diagnostics


def load_default_lexicon() -> Lexicon:
    """The lexicon bundled with the package, covering the navigation corpus."""
    text = resources.files("ambistl.data").joinpath("lexicon.txt").read_text(encoding="utf-8")
    return load_lexicon(text)
