"""Tokenisation and CKY parsing into a packed chart, with n-best derivations.

The chart is filled once over forward and backward application
(coordination is lexical, via (X\\X)/X categories).  It is packed: each
span maps every category built over it to the backpointers that build it,
so it stays small however many derivations it holds.  Only non-empty spans
are kept: a span with no category has no cell.  The fill pairs each new
cell with its non-empty neighbours, so it visits only the splits whose two
daughter cells are non-empty, and compares interned categories by identity.  A
complete derivation covers the whole sentence with a category in
``ROOT_CATEGORIES`` (a closed formula S or a bounded task disjunction R).
A filled chart is read by one bottom-up walk, :func:`inside`: a reader
is a function that folds one backpointer, a lexical entry or a rule with
its daughters' values, into its item's value, and the walk alone orders
the items, looks up daughters and drops what no mother still needs.  The
pipeline's reader packs meanings; :func:`unpack_nbest`'s builds the trees,
summing each one's score as it builds it (no finished tree is walked), and
returns the top n by score.  Ties in score keep chart order: root
categories as the top cell holds them, then each item's backpointers in
cell order, then left trees before right trees.

Scoring replaces a learned parser model with a declared structural
preference: every post-modifier attachment (a while-clause or a trailing
within-phrase, recognised by the token at the split of a backward
application) pays 0.7 per task-verb token (a word the lexicon lists as a
one-token T/NP entry) it skips inside its attachment site beyond the
nearest one.  Local attachments are therefore preferred, and the penalty
grows with the amount of material the modifier takes scope over.  The
chart is weighted: each binary backpointer carries what it adds to the
score of every derivation through it, its rule weight and the task verbs
it skips, so the readers sum scores over the chart without the lexicon or
the words.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence, TypeVar, Union

from .lexicon import (
    BACKWARD, FORWARD, ROOT_CATEGORIES, Basic, Category, LexEntry, Lexicon, Slash, format_category, lookup
)
from .record import Record

LOCALITY_PENALTY = 0.7
POST_MODIFIER_HEADS = ("while", "within")
DEFAULT_N_BEST = 40
_ROOTS = frozenset(map(Basic, ROOT_CATEGORIES))  # interned, so compared by identity


class ParserError(Exception):
    pass


class EmptySentenceError(ParserError):
    pass


class CoverageError(ParserError):
    """Some token has no lexical entry; carries the token and its position."""

    def __init__(self, token: str, position: int) -> None:
        quoted = f"'{token}'" if len(token) <= 40 else f"'{token[:40]}...' ({len(token)} characters)"
        super().__init__(f"no lexical entry covers token {quoted} at position {position}")
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


class Leaf(Record):
    __slots__ = ("entry", "start", "end")

    def __init__(self, entry: LexEntry, start: int, end: int) -> None:
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)  # token span [start, end)

    @property
    def category(self) -> Category:
        return self.entry.category


class Node(Record):
    __slots__ = ("rule", "category", "left", "right", "start", "end")

    def __init__(
        self,
        rule: str,
        category: Category,
        left: Union["Leaf", "Node"],
        right: Union["Leaf", "Node"],
        start: int,
        end: int,
    ) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


DerivationTree = Union[Leaf, Node]


class Derivation(Record):
    """A complete scored parse: a binary tree over lexical leaves."""

    __slots__ = ("root", "score")

    def __init__(self, root: DerivationTree, score: float) -> None:
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "score", score)


def pretty_derivation(tree: DerivationTree, indent: int = 0) -> str:
    """Indented tree with category labels, for human inspection."""
    pad = "  " * indent
    if isinstance(tree, Leaf):
        return f"{pad}{format_category(tree.category)}  '{' '.join(tree.entry.surface)}'"
    head = f"{pad}{format_category(tree.category)}  <{tree.rule}>"
    return "\n".join(
        [head, pretty_derivation(tree.left, indent + 1), pretty_derivation(tree.right, indent + 1)]
    )


def score_of(weight: float, skipped: int) -> float:
    """The score of summed leaf and rule weights less the locality penalty
    of ``skipped`` task verbs.  Skips are counted as an int up to here, so
    equal skip counts give bit-equal scores."""
    return weight - LOCALITY_PENALTY * skipped


# A backpointer is a lexical entry spanning the whole cell, or a binary rule
# with the split point, the categories of its two daughters, and what it
# adds to the score of every derivation through it: the rule's weight and
# the task verbs its post-modifier skips.
Backpointer = Union[LexEntry, tuple[str, int, Category, Category, float, int]]


class Chart(Record):
    """Packed, weighted parse forest: for each span that some category is
    built over, every such category, each with the backpointers that build
    it.  A span with no category has no key in ``cells``."""

    __slots__ = ("words", "cells")

    def __init__(
        self, words: tuple[str, ...], cells: dict[tuple[int, int], dict[Category, list[Backpointer]]]
    ) -> None:
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "cells", cells)

    @property
    def roots(self) -> list[Category]:
        """Categories in ``ROOT_CATEGORIES`` over the whole sentence."""
        top = self.cells.get((0, len(self.words)), ())
        return [cat for cat in top if cat in _ROOTS]


def fill_chart(words: Sequence[str], lexicon: Lexicon) -> Chart:
    """CKY over forward and backward application into a packed chart.

    Only non-empty cells are kept: a span over which no category is built
    has no key in ``Chart.cells``.  Spans are filled shortest first.  A cell
    ``(i, j)`` is built from the splits ``k`` where both ``(i, k)`` and
    ``(k, j)`` are non-empty, found by pairing: a new non-empty cell is
    paired with each one that ends where it starts or starts where it ends,
    and the split is queued under the span the two cover.  Each cell's
    backpointers come in the order a dense loop over every ``k`` gives them
    (ascending ``k``, then the daughters' categories in cell order, ``fa``
    before ``ba``), the chart order that tied derivations and float sums follow.

    Raises :class:`CoverageError` when a word has no lexical entry and
    :class:`NoParseError` when no root category covers the whole sentence.
    """
    if not words:
        raise EmptySentenceError("empty token sequence")
    length = len(words)
    # rows[i][j] is the cell (i, j); only non-empty cells have a key
    rows: list[dict[int, dict[Category, list[Backpointer]]]] = [{} for _ in range(length)]
    # splits[j - i][i]: the split points k of the non-empty pairs (i, k), (k, j);
    # ends[i] and starts[j]: the j and the i of each paired non-empty cell (i, j)
    splits: list[dict[int, list[int]]] = [{} for _ in range(length + 1)]
    ends, starts = [[] for _ in range(length + 1)], [[] for _ in range(length + 1)]

    covered = 0  # words[:covered] lie under some entry
    for i in range(length):
        for span, entry in lookup(lexicon, words, i):
            rows[i].setdefault(i + span, {}).setdefault(entry.category, []).append(entry)
            covered = max(covered, i + span)
        if covered <= i:
            raise CoverageError(words[i], i)

    # verbs[i]: task verbs among words[:i], whose differences count skips
    verbs = list(accumulate((word in lexicon.task_verbs for word in words), initial=0))
    fa_weight, ba_weight = lexicon.rule_weight("fa"), lexicon.rule_weight("ba")
    fresh = [(i, j) for i, row in enumerate(rows) for j in row]  # non-empty cells not yet paired
    for span in range(2, length + 1):
        for i, j in fresh:  # queue the splits each new cell makes with the paired ones
            for end in ends[j]:
                splits[end - i].setdefault(i, []).append(j)
            for start in starts[i]:
                splits[j - start].setdefault(start, []).append(i)
            ends[i].append(j)
            starts[j].append(i)
        fresh = []
        for i, ks in splits[span].items():
            j = i + span
            row = rows[i]
            cell = row.get(j, {})
            for k in sorted(ks):
                right = rows[k][j]
                skipped = max(0, verbs[k] - verbs[i] - 1) if words[k] in POST_MODIFIER_HEADS else 0
                for cat_l in row[k]:
                    argument = cat_l.argument if type(cat_l) is Slash and cat_l.slash == FORWARD else None
                    for cat_r in right:
                        if cat_r is argument:
                            back = ("fa", k, cat_l, cat_r, fa_weight, 0)
                            cell.setdefault(cat_l.result, []).append(back)
                        if type(cat_r) is Slash and cat_r.argument is cat_l and cat_r.slash == BACKWARD:
                            back = ("ba", k, cat_l, cat_r, ba_weight, skipped)
                            cell.setdefault(cat_r.result, []).append(back)
            if cell and j not in row:
                row[j] = cell
                fresh.append((i, j))

    cells = {(i, j): cell for i, row in enumerate(rows) for j, cell in row.items()}
    chart = Chart(tuple(words), cells)
    if not chart.roots:
        raise NoParseError(f"no complete parse for: {' '.join(chart.words)!r}")
    return chart


Value = TypeVar("Value")


def inside(chart: Chart, start: Callable[[], Value], combine: Callable[..., Value]) -> list[Value]:
    """The values of the root items of ``chart``, in ``chart.roots`` order.

    Each item ``(i, j, category)`` under a root starts as ``start()``; each
    of its backpointers, in cell order, is folded in by
    ``combine(value, item, back, left, right)``, where ``left`` and ``right``
    are the daughters' values, both ``None`` for a lexical entry.  Items are
    visited shortest span first, so daughters precede their mothers.  The
    backpointers that read each item are counted top-down from the roots
    first, and an item's value is dropped once its last reader has been
    combined, so the walk holds only what a pending mother still needs.
    """
    # back[1:4] of a binary backpointer over (i, j) are its split point k and
    # the categories of its daughters (i, k) and (k, j).
    readers = {(0, len(chart.words), cat): 0 for cat in chart.roots}
    reached = []  # each item under a root with its backpointers, mothers first
    # Longest spans first: a mother's span is longer than its daughters'.
    for (i, j), cell in sorted(chart.cells.items(), key=lambda item: item[0][0] - item[0][1]):
        for cat, backs in cell.items():
            if (i, j, cat) in readers:
                reached.append(((i, j, cat), backs))
                for back in backs:
                    if type(back) is tuple:
                        for daughter in ((i, back[1], back[2]), (back[1], j, back[3])):
                            readers[daughter] = readers.get(daughter, 0) + 1
    values: dict[tuple[int, int, Category], Value] = {}
    for item, backs in reversed(reached):
        i, j, _ = item
        value = start()
        for back in backs:
            if type(back) is not tuple:
                value = combine(value, item, back, None, None)
                continue
            left, right = (i, back[1], back[2]), (back[1], j, back[3])
            value = combine(value, item, back, values[left], values[right])
            for daughter in (left, right):
                readers[daughter] -= 1
                if not readers[daughter]:
                    del values[daughter]
        values[item] = value
    return [values[(0, len(chart.words), cat)] for cat in chart.roots]


def _unpack(trees: list, item: tuple, back: Backpointer, left: list, right: list) -> list:
    """The tree reader of :func:`inside`: an item's trees, each with its
    summed weight and skipped task verbs, left trees before right trees."""
    i, j, cat = item
    if isinstance(back, LexEntry):
        return trees + [(Leaf(back, i, j), back.weight, 0)]
    rule, _, _, _, weight, skipped = back
    trees += [
        (Node(rule, cat, tree_l, tree_r, i, j), weight + w_l + w_r, skipped + s_l + s_r)
        for tree_l, w_l, s_l in left
        for tree_r, w_r, s_r in right
    ]
    return trees


def unpack_nbest(chart: Chart, n: int = DEFAULT_N_BEST) -> list[Derivation]:
    """The ``n`` best complete derivations of a filled chart, best-first.

    One stable sort by score: ties keep the order in which the chart builds
    the trees (root categories as the top cell holds them, each item's
    backpointers in cell order, left trees before right trees), which
    depends on nothing but the sentence and the lexicon.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    roots = [tree for trees in inside(chart, list, _unpack) for tree in trees]
    scored = [Derivation(root, score_of(weight, skipped)) for root, weight, skipped in roots]
    scored.sort(key=lambda d: -d.score)
    return scored[:n]


def parse_nbest(
    words: Sequence[str], lexicon: Lexicon, n: int = DEFAULT_N_BEST
) -> list[Derivation]:
    """The ``n`` best derivations of ``words``: :func:`unpack_nbest` of :func:`fill_chart`."""
    return unpack_nbest(fill_chart(words, lexicon), n)
