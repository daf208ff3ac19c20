"""A dense reference for ``fill_chart``: CKY that visits every split point.

:func:`dense_fill_chart` tries every ``k`` between the ends of each span,
empty daughter cells included, so it fixes the backpointer order that the
sparse fill must keep.  Each binary backpointer carries the rule's weight
and the task verbs it skips, counted by scanning its left daughter's
words.  It returns the cells without checking coverage or roots.
"""

from __future__ import annotations

from typing import Sequence

from ambistl.lexicon import BACKWARD, FORWARD, Lexicon, Slash, lookup
from ambistl.parser import POST_MODIFIER_HEADS


def skipped_verbs(lexicon: Lexicon, words: Sequence[str], rule: str, i: int, k: int) -> int:
    """Task verbs beyond the first in ``words[i:k]`` when a ``ba`` over
    ``i`` splits at ``k`` on a post-modifier head, else 0."""
    if rule != "ba" or words[k] not in POST_MODIFIER_HEADS:
        return 0
    return max(0, sum(word in lexicon.task_verbs for word in words[i:k]) - 1)


def dense_fill_chart(words: Sequence[str], lexicon: Lexicon) -> dict:
    length = len(words)
    cells: dict = {(i, j): {} for i in range(length) for j in range(i + 1, length + 1)}
    for i in range(length):
        for span, entry in lookup(lexicon, words, i):
            cells[(i, i + span)].setdefault(entry.category, []).append(entry)
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
                                cell.setdefault(fn.result, []).append((
                                    rule, k, cat_l, cat_r, lexicon.rule_weight(rule),
                                    skipped_verbs(lexicon, words, rule, i, k),
                                ))
    return cells
