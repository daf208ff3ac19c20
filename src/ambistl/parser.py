"""Tokenisation and exhaustive CKY chart parsing with n-best derivations.

The parser builds the full binary parse forest over forward and backward
application (coordination is lexical, via (X\\X)/X categories), enumerates
every complete derivation over the whole sentence whose root category is
in ``ROOT_CATEGORIES`` (a closed formula S or a bounded task disjunction
R), scores them, and returns the top n in a deterministic order.
Keeping more than one derivation is the point: attachment ambiguity must
survive into semantic composition.  Ties in score are broken by the
canonical derivation string, which is rendered only for the derivations
that score at or above the n-th best score: no other derivation can reach
the top n.

Scoring replaces a learned parser model with a declared structural
preference: every post-modifier attachment (a while-clause or a trailing
within-phrase, recognised by the head word of the backward functor) pays
0.7 per task verb it skips inside its attachment site beyond the nearest
one.  Local attachments are therefore preferred, and the penalty grows
with the amount of material the modifier takes scope over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .lexicon import ROOT_CATEGORIES, Category, LexEntry, Lexicon, Slash, format_category, lookup

LOCALITY_PENALTY = 0.7
POST_MODIFIER_HEADS = ("while", "within")
TASK_VERBS = ("reach", "avoid", "avoiding")
DEFAULT_N_BEST = 40


class ParserError(Exception):
    pass


class EmptySentenceError(ParserError):
    pass


class CoverageError(ParserError):
    """Some token has no lexical entry; carries the token and its position."""

    def __init__(self, token: str, position: int) -> None:
        super().__init__(f"no lexical entry covers token '{token}' at position {position}")
        self.token = token
        self.position = position


class NoParseError(ParserError):
    pass


@dataclass(frozen=True)
class Token:
    text: str
    position: int


def tokenize(sentence: str) -> list[Token]:
    """Lowercase, strip a terminal period, drop commas, split on whitespace."""
    text = sentence.strip().lower()
    if text.endswith("."):
        text = text[:-1]
    text = text.replace(",", " ")
    words = text.split()
    if not words:
        raise EmptySentenceError("empty sentence")
    return [Token(word, i) for i, word in enumerate(words)]


@dataclass(frozen=True)
class Leaf:
    entry: LexEntry
    start: int
    end: int  # token span [start, end)

    @property
    def category(self) -> Category:
        return self.entry.category

    @cached_property
    def task_verbs(self) -> int:
        return int(self.entry.surface[0] in TASK_VERBS)


@dataclass(frozen=True)
class Node:
    rule: str
    category: Category
    left: Union["Leaf", "Node"]
    right: Union["Leaf", "Node"]
    start: int
    end: int

    @cached_property
    def task_verbs(self) -> int:
        """Task verbs among the leaves; computed once per chart node, which
        every derivation containing the node shares."""
        return self.left.task_verbs + self.right.task_verbs


DerivationTree = Union[Leaf, Node]


@dataclass(frozen=True)
class Derivation:
    """A complete scored parse: a binary tree over lexical leaves."""

    root: DerivationTree
    score: float


def format_derivation(tree: DerivationTree) -> str:
    """Compact canonical bracketing, used as the deterministic tie-breaker.

    Leaves carry their template text as well: surface form and category do
    not identify an entry when a word has several readings in one category.
    """
    if isinstance(tree, Leaf):
        from .semantics import format_term

        surface = "_".join(tree.entry.surface)
        return f"{surface}:{format_category(tree.category)}:{format_term(tree.entry.template)}"
    return f"({tree.rule} {format_derivation(tree.left)} {format_derivation(tree.right)})"


def pretty_derivation(tree: DerivationTree, indent: int = 0) -> str:
    """Indented tree with category labels, for human inspection."""
    pad = "  " * indent
    if isinstance(tree, Leaf):
        return f"{pad}{format_category(tree.category)}  '{' '.join(tree.entry.surface)}'"
    head = f"{pad}{format_category(tree.category)}  <{tree.rule}>"
    return "\n".join(
        [head, pretty_derivation(tree.left, indent + 1), pretty_derivation(tree.right, indent + 1)]
    )


def score(tree: Union[DerivationTree, "Derivation"], lexicon: Lexicon) -> float:
    """Leaf weights plus rule weights plus attachment locality penalties."""
    if isinstance(tree, Derivation):
        tree = tree.root
    total = 0.0
    skipped = 0  # counted as an int so equal skip counts give equal scores
    stack: list[DerivationTree] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            total += node.entry.weight
            continue
        total += lexicon.rule_weight(node.rule)
        if node.rule == "ba" and _modifier_head(node.right) in POST_MODIFIER_HEADS:
            skipped += max(0, node.left.task_verbs - 1)
        stack.append(node.left)
        stack.append(node.right)
    return total - LOCALITY_PENALTY * skipped


def _modifier_head(tree: DerivationTree) -> str:
    node = tree
    while isinstance(node, Node):
        node = node.left
    return node.entry.surface[0]


def parse_nbest(
    tokens: list[Token], lexicon: Lexicon, n: int = DEFAULT_N_BEST
) -> list[Derivation]:
    """Enumerate all complete derivations, best-first, truncated to ``n``.

    The chart is filled exhaustively with forward and backward application
    and every complete derivation is scored.  Ties in score are broken by
    the canonical derivation string so results are identical across runs;
    that string is rendered only for the derivations tied with or above the
    n-th score, since a derivation scoring below it cannot outrank n others.
    Raises :class:`CoverageError` when a token has no lexical entry and
    :class:`NoParseError` when no root category covers the whole sentence.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not tokens:
        raise EmptySentenceError("empty token sequence")
    length = len(tokens)
    chart: dict[tuple[int, int], list[tuple[Category, DerivationTree]]] = {
        (i, j): [] for i in range(length) for j in range(i + 1, length + 1)
    }

    covered = [False] * length
    for i in range(length):
        for span, entry in lookup(lexicon, tokens, i):
            chart[(i, i + span)].append((entry.category, Leaf(entry, i, i + span)))
            for k in range(i, i + span):
                covered[k] = True
    for i, ok in enumerate(covered):
        if not ok:
            raise CoverageError(tokens[i].text, i)

    for span in range(2, length + 1):
        for i in range(0, length - span + 1):
            j = i + span
            cell = chart[(i, j)]
            for k in range(i + 1, j):
                for cat_l, tree_l in chart[(i, k)]:
                    for cat_r, tree_r in chart[(k, j)]:
                        if (
                            isinstance(cat_l, Slash)
                            and cat_l.slash == "/"
                            and cat_l.argument == cat_r
                        ):
                            cell.append(
                                (cat_l.result, Node("fa", cat_l.result, tree_l, tree_r, i, j))
                            )
                        if (
                            isinstance(cat_r, Slash)
                            and cat_r.slash == "\\"
                            and cat_r.argument == cat_l
                        ):
                            cell.append(
                                (cat_r.result, Node("ba", cat_r.result, tree_l, tree_r, i, j))
                            )

    roots = [tree for cat, tree in chart[(0, length)] if format_category(cat) in ROOT_CATEGORIES]
    if not roots:
        raise NoParseError(
            f"no complete parse for: {' '.join(t.text for t in tokens)!r}"
        )
    scored = [Derivation(root, score(root, lexicon)) for root in roots]
    scored.sort(key=lambda d: -d.score)
    if len(scored) > n:
        cutoff = scored[n - 1].score
        scored = [d for d in scored if d.score >= cutoff]
    scored.sort(key=lambda d: (-d.score, format_derivation(d.root)))
    return scored[:n]
