"""Tokenisation and CKY parsing into a packed chart, with n-best derivations.

The chart is filled once over forward and backward application
(coordination is lexical, via (X\\X)/X categories).  It is packed: each
span maps every category built over it to the backpointers that build it,
so it stays small however many derivations it holds.  A complete
derivation covers the whole sentence with a category in
``ROOT_CATEGORIES`` (a closed formula S or a bounded task disjunction R).
Two readers use the chart: the pipeline composes meanings over it
directly, and :func:`parse_nbest` unpacks the trees, for callers that need
them, and returns the top n in a deterministic order (ties in score are
broken by the canonical derivation string).

Scoring replaces a learned parser model with a declared structural
preference: every post-modifier attachment (a while-clause or a trailing
within-phrase, recognised by the token at the split of a backward
application) pays 0.7 per task-verb token (a word the lexicon lists as a
one-token T/NP entry) it skips inside its attachment site beyond the
nearest one.  Local attachments are therefore preferred, and the penalty
grows with the amount of material the modifier takes scope over.  What a
node adds to the score depends only on its span and its split, so scores
can be summed over the packed chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .lexicon import (
    BACKWARD, FORWARD, ROOT_CATEGORIES, Category, LexEntry, Lexicon, Slash, format_category, lookup
)
from .semantics import format_term

LOCALITY_PENALTY = 0.7
POST_MODIFIER_HEADS = ("while", "within")
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


def tokenize(sentence: str) -> list[str]:
    """Lowercase, strip a terminal period, drop commas, split on whitespace."""
    text = sentence.strip().lower()
    if text.endswith("."):
        text = text[:-1]
    words = text.replace(",", " ").split()
    if not words:
        raise EmptySentenceError("empty sentence")
    return words


@dataclass(frozen=True)
class Leaf:
    entry: LexEntry
    start: int
    end: int  # token span [start, end)

    @property
    def category(self) -> Category:
        return self.entry.category


@dataclass(frozen=True)
class Node:
    rule: str
    category: Category
    left: Union["Leaf", "Node"]
    right: Union["Leaf", "Node"]
    start: int
    end: int


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


def skipped_verbs(
    rule: str, words: Sequence[str], start: int, split: int, verbs: frozenset[str]
) -> int:
    """Task-verb tokens (members of ``verbs``) beyond the nearest one that a
    post-modifier skips when a backward application starting at ``start``
    attaches it at ``split``; 0 unless the token at the split is a modifier
    head."""
    if rule != "ba" or words[split] not in POST_MODIFIER_HEADS:
        return 0
    return max(0, sum(word in verbs for word in words[start:split]) - 1)


def score(
    tree: Union[DerivationTree, "Derivation"], lexicon: Lexicon, words: Sequence[str]
) -> float:
    """Leaf weights plus rule weights plus attachment locality penalties;
    ``words`` are the tokens of the sentence the tree spans."""
    if isinstance(tree, Derivation):
        tree = tree.root
    verbs = lexicon.task_verbs
    total = 0.0
    skipped = 0  # counted as an int so equal skip counts give equal scores
    stack: list[DerivationTree] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            total += node.entry.weight
            continue
        total += lexicon.rule_weight(node.rule)
        skipped += skipped_verbs(node.rule, words, node.start, node.left.end, verbs)
        stack.append(node.left)
        stack.append(node.right)
    return total - LOCALITY_PENALTY * skipped


# A backpointer is a lexical entry spanning the whole cell, or a binary rule
# with the split point and the categories of its two daughters.
Backpointer = Union[LexEntry, tuple[str, int, Category, Category]]


@dataclass(frozen=True)
class Chart:
    """Packed parse forest: for each span, every category built over it,
    each with the backpointers that build it."""

    words: tuple[str, ...]
    cells: dict[tuple[int, int], dict[Category, list[Backpointer]]]

    @property
    def roots(self) -> list[Category]:
        """Categories in ``ROOT_CATEGORIES`` over the whole sentence."""
        top = self.cells[(0, len(self.words))]
        return [cat for cat in top if format_category(cat) in ROOT_CATEGORIES]

    def items_under_roots(self) -> list[tuple[int, int, Category]]:
        """Every ``(start, end, category)`` that some complete derivation
        uses, shorter spans first, so daughters precede their mothers."""
        length = len(self.words)
        used = {(0, length, cat) for cat in self.roots}
        for span in range(length, 1, -1):
            for i in range(length - span + 1):
                for cat, backs in self.cells[(i, i + span)].items():
                    if (i, i + span, cat) not in used:
                        continue
                    for back in backs:
                        if isinstance(back, tuple):
                            _, k, cat_l, cat_r = back
                            used.add((i, k, cat_l))
                            used.add((k, i + span, cat_r))
        return sorted(used, key=lambda item: item[1] - item[0])


def fill_chart(words: Sequence[str], lexicon: Lexicon) -> Chart:
    """CKY over forward and backward application into a packed chart.

    Raises :class:`CoverageError` when a word has no lexical entry and
    :class:`NoParseError` when no root category covers the whole sentence.
    """
    if not words:
        raise EmptySentenceError("empty token sequence")
    length = len(words)
    cells: dict[tuple[int, int], dict[Category, list[Backpointer]]] = {
        (i, j): {} for i in range(length) for j in range(i + 1, length + 1)
    }

    covered = [False] * length
    for i in range(length):
        for span, entry in lookup(lexicon, words, i):
            cells[(i, i + span)].setdefault(entry.category, []).append(entry)
            for k in range(i, i + span):
                covered[k] = True
    for i, ok in enumerate(covered):
        if not ok:
            raise CoverageError(words[i], i)

    for span in range(2, length + 1):
        for i in range(0, length - span + 1):
            j = i + span
            cell = cells[(i, j)]
            for k in range(i + 1, j):
                for cat_l in cells[(i, k)]:
                    for cat_r in cells[(k, j)]:
                        for rule, fn, arg, slash in (
                            ("fa", cat_l, cat_r, FORWARD),
                            ("ba", cat_r, cat_l, BACKWARD),
                        ):
                            if isinstance(fn, Slash) and fn.slash == slash and fn.argument == arg:
                                cell.setdefault(fn.result, []).append((rule, k, cat_l, cat_r))

    chart = Chart(tuple(words), cells)
    if not chart.roots:
        raise NoParseError(f"no complete parse for: {' '.join(chart.words)!r}")
    return chart


def parse_nbest(
    words: Sequence[str], lexicon: Lexicon, n: int = DEFAULT_N_BEST
) -> list[Derivation]:
    """The ``n`` best complete derivations, best-first, unpacked from the
    packed chart of :func:`fill_chart`.

    Ties in score are broken by the canonical derivation string, so results
    are identical across runs; that string is rendered only for the
    derivations tied with or above the n-th score, since a derivation
    scoring below it cannot outrank n others.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    chart = fill_chart(words, lexicon)
    trees: dict[tuple[int, int, Category], list[DerivationTree]] = {}
    for i, j, cat in chart.items_under_roots():
        built = trees[(i, j, cat)] = []
        for back in chart.cells[(i, j)][cat]:
            if isinstance(back, LexEntry):
                built.append(Leaf(back, i, j))
                continue
            rule, k, cat_l, cat_r = back
            built += [
                Node(rule, cat, left, right, i, j)
                for left in trees[(i, k, cat_l)]
                for right in trees[(k, j, cat_r)]
            ]
    length = len(chart.words)
    roots = [tree for cat in chart.roots for tree in trees[(0, length, cat)]]
    scored = [Derivation(root, score(root, lexicon, chart.words)) for root in roots]
    scored.sort(key=lambda d: -d.score)
    if len(scored) > n:
        cutoff = scored[n - 1].score
        scored = [d for d in scored if d.score >= cutoff]
    scored.sort(key=lambda d: (-d.score, format_derivation(d.root)))
    return scored[:n]
