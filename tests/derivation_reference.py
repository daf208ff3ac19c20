"""Reference readers for derivation trees, independent of ``unpack_nbest``.

:func:`format_derivation` renders a tree as a compact bracketing that
identifies it; :func:`reference_score` scores a finished tree by one walk,
reading rule weights off the lexicon and counting skipped task verbs in
the words as ``chart_reference`` does;
:func:`chart_order_derivations` enumerates every complete derivation
straight from ``chart.cells`` and sorts them stably by that score, which
is the order ``unpack_nbest`` documents; :func:`enumerated` is the
candidate set of ``translate`` computed one derivation at a time.
"""

from __future__ import annotations

import sys
from typing import Iterator, Sequence

from ambistl.lexicon import Category, LexEntry, Lexicon, format_category
from ambistl.parser import (
    LOCALITY_PENALTY, Chart, DerivationTree, Leaf, Node, parse_nbest, tokenize
)
from ambistl.pipeline import CandidateSet, IllFormedMeaningError, aggregate, compose, to_stl
from ambistl.semantics import format_term

from chart_reference import skipped_verbs


def format_derivation(tree: DerivationTree) -> str:
    """Compact bracketing of a tree.

    Leaves carry their template text as well: surface form and category do
    not identify an entry when a word has several readings in one category.
    """
    if isinstance(tree, Leaf):
        surface = "_".join(tree.entry.surface)
        return f"{surface}:{format_category(tree.category)}:{format_term(tree.entry.template)}"
    return f"({tree.rule} {format_derivation(tree.left)} {format_derivation(tree.right)})"


def reference_score(tree: DerivationTree, lexicon: Lexicon, words: Sequence[str]) -> float:
    """Leaf weights plus rule weights plus attachment locality penalties,
    by one walk over a finished tree; ``words`` are the tokens it spans."""
    total = 0.0
    skipped = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            total += node.entry.weight
            continue
        total += lexicon.rule_weight(node.rule)
        skipped += skipped_verbs(lexicon, words, node.rule, node.start, node.left.end)
        stack.append(node.left)
        stack.append(node.right)
    return total - LOCALITY_PENALTY * skipped


def _item_trees(chart: Chart, i: int, j: int, cat: Category) -> Iterator[DerivationTree]:
    """Every tree of one chart item: its backpointers in cell order, and
    under each binary one, left trees before right trees."""
    for back in chart.cells[(i, j)][cat]:
        if isinstance(back, LexEntry):
            yield Leaf(back, i, j)
            continue
        rule, k, cat_l, cat_r, _, _ = back
        for left in _item_trees(chart, i, k, cat_l):
            for right in _item_trees(chart, k, j, cat_r):
                yield Node(rule, cat, left, right, i, j)


def chart_order_derivations(chart: Chart, lexicon: Lexicon) -> list[tuple[float, str]]:
    """``(score, bracketing)`` of every complete derivation, best first;
    ties keep chart order, root categories as the top cell holds them."""
    trees = [
        tree for cat in chart.roots for tree in _item_trees(chart, 0, len(chart.words), cat)
    ]
    scored = [(reference_score(tree, lexicon, chart.words), tree) for tree in trees]
    scored.sort(key=lambda pair: -pair[0])
    return [(score, format_derivation(tree)) for score, tree in scored]


def enumerated(sentence: str, lexicon: Lexicon) -> CandidateSet:
    """Reference for translate: compose, convert and aggregate every
    derivation one by one."""
    derivations = parse_nbest(tokenize(sentence), lexicon, n=sys.maxsize)
    scored = []
    for derivation in derivations:
        try:
            scored.append((to_stl(compose(derivation)), derivation.score))
        except IllFormedMeaningError:
            continue
    return aggregate(scored, sentence, len(derivations), len(derivations) - len(scored))
