import sys
from collections import defaultdict

import pytest

from ambistl.lexicon import Basic
from ambistl.parser import (
    POST_MODIFIER_HEADS,
    CoverageError,
    EmptySentenceError,
    Leaf,
    NoParseError,
    format_derivation,
    parse_nbest,
    pretty_derivation,
    score,
    skipped_verbs,
    tokenize,
)

from conftest import kstep_sentence


def leaves(tree) -> list[Leaf]:
    if isinstance(tree, Leaf):
        return [tree]
    return leaves(tree.left) + leaves(tree.right)


# --- tokenizer ------------------------------------------------------------------

def test_tokenize_strips_period_and_lowercases():
    assert tokenize("Reach B within 10 seconds.") == ["reach", "b", "within", "10", "seconds"]


def test_tokenize_removes_commas():
    assert tokenize("Within 10 seconds, reach B or reach C while avoiding A.") == [
        "within", "10", "seconds", "reach", "b", "or", "reach", "c", "while", "avoiding", "a",
    ]


def test_tokenize_collapses_whitespace_runs():
    assert tokenize("Reach  B or C within 10 seconds.") == [
        "reach", "b", "or", "c", "within", "10", "seconds",
    ]


def test_tokenize_empty_sentence():
    with pytest.raises(EmptySentenceError):
        tokenize("")
    with pytest.raises(EmptySentenceError):
        tokenize("   . ")


# --- chart parsing ----------------------------------------------------------------

def test_simple_sentence_has_exactly_one_derivation(lexicon):
    derivations = parse_nbest(tokenize("Reach B within 10 seconds."), lexicon)
    assert len(derivations) == 1
    root = derivations[0].root
    assert root.category == Basic("S")
    assert root.start == 0 and root.end == 5


def test_ambiguous_sentence_keeps_both_attachments(lexicon):
    derivations = parse_nbest(
        tokenize("Within 10 seconds, reach B or reach C while avoiding A."), lexicon
    )
    assert len(derivations) >= 2
    strings = [format_derivation(d.root) for d in derivations]
    assert len(set(strings)) == len(strings), "derivations must be distinct"


def test_coverage_error_names_first_unknown_token(lexicon):
    with pytest.raises(CoverageError) as exc_info:
        parse_nbest(tokenize("zebra the moon"), lexicon)
    assert exc_info.value.token == "zebra"
    assert exc_info.value.position == 0


def test_no_parse_error(lexicon):
    # all tokens known, but no S spans the sentence
    with pytest.raises(NoParseError):
        parse_nbest(tokenize("b within 10 seconds"), lexicon)


def test_n_must_be_positive(lexicon):
    with pytest.raises(ValueError):
        parse_nbest(tokenize("Reach B within 10 seconds."), lexicon, n=0)


def test_truncation_to_n(lexicon):
    tokens = tokenize("Within 10 seconds, reach B or reach C while avoiding A.")
    full = parse_nbest(tokens, lexicon, n=100)
    top2 = parse_nbest(tokens, lexicon, n=2)
    assert len(top2) == 2
    assert [format_derivation(d.root) for d in top2] == [
        format_derivation(d.root) for d in full[:2]
    ]


def test_scores_sorted_descending(lexicon):
    for sentence in [
        "Reach B within 10 seconds or reach C within 15 seconds while avoiding A.",
        "Reach B within 10 seconds and then reach C within 15 seconds while avoiding A.",
    ]:
        derivations = parse_nbest(tokenize(sentence), lexicon)
        scores = [d.score for d in derivations]
        assert scores == sorted(scores, reverse=True)


def test_stored_score_equals_recomputed(lexicon, corpus):
    for sentence in corpus.values():
        words = tokenize(sentence)
        for derivation in parse_nbest(words, lexicon):
            assert score(derivation.root, lexicon, words) == derivation.score


def test_determinism_across_runs(lexicon, corpus):
    for sentence in corpus.values():
        tokens = tokenize(sentence)
        first = parse_nbest(tokens, lexicon)
        second = parse_nbest(tokens, lexicon)
        assert [(d.score, format_derivation(d.root)) for d in first] == [
            (d.score, format_derivation(d.root)) for d in second
        ]


def test_zero_weight_modifier_free_derivation_scores_zero(lexicon):
    derivations = parse_nbest(tokenize("Reach B or C within 10 seconds."), lexicon)
    # the trailing within attaches to the only task unit: no skipped verbs
    assert derivations[0].score == 0.0


def test_local_while_attachment_outranks_global(lexicon):
    """The most local while-attachment carries no penalty; wider scopes pay."""
    from ambistl.pipeline import IllFormedMeaningError, compose, to_stl
    from ambistl.stl import extent

    derivations = parse_nbest(
        tokenize("Reach B within 10 seconds and then reach C within 15 seconds while avoiding A."),
        lexicon,
    )
    formulas = {}
    for d in derivations:
        try:
            formulas.setdefault(extent(to_stl(compose(d))), d.score)
        except IllFormedMeaningError:
            continue
    # local guard reading has extent 25 via the inner reach, global has 25 too;
    # distinguish by score: the first recorded (highest) must be the local one
    assert formulas and max(formulas.values()) == 0.0


TASK_VERBS = ("reach", "avoid", "avoiding")  # the bundled lexicon's T/NP words


def _skipped_verbs(tree) -> int:
    """Task verbs skipped by the tree's post-modifier attachments."""
    if isinstance(tree, Leaf):
        return 0
    own = 0
    if tree.rule == "ba" and leaves(tree.right)[0].entry.surface[0] in POST_MODIFIER_HEADS:
        verbs = sum(1 for leaf in leaves(tree.left) if leaf.entry.surface[0] in TASK_VERBS)
        own = max(0, verbs - 1)
    return own + _skipped_verbs(tree.left) + _skipped_verbs(tree.right)


def test_equal_skip_counts_give_equal_scores(lexicon):
    """With zero lexical and rule weights, derivations skipping the same
    number of task verbs score exactly alike, so the documented tie-break
    by derivation string decides their order."""
    derivations = parse_nbest(tokenize(kstep_sentence(5)), lexicon, n=sys.maxsize)
    assert len(derivations) == 42
    scores_by_skips = defaultdict(set)
    for d in derivations:
        scores_by_skips[_skipped_verbs(d.root)].add(d.score)
    assert len(scores_by_skips) > 1
    assert all(len(scores) == 1 for scores in scores_by_skips.values()), scores_by_skips
    keys = [(-d.score, format_derivation(d.root)) for d in derivations]
    assert keys == sorted(keys)


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("n", [1, 5, 6, 10, 14, 15, 28, 29, 40, 68, 69, sys.maxsize])
def test_nbest_equals_top_n_of_the_full_sort(lexicon, k, n):
    """The score cutoff keeps every derivation tied with the n-th, so the
    top n equal those of sorting every derivation.  At k=5 the tie groups
    end at 14, 19, 23, 28 and 42 derivations; at k=4 at 5, 7, 9 and 14."""
    tokens = tokenize(kstep_sentence(k))
    full = parse_nbest(tokens, lexicon, n=sys.maxsize)
    expected = sorted(full, key=lambda d: (-d.score, format_derivation(d.root)))[:n]
    got = parse_nbest(tokens, lexicon, n=n)
    assert [(d.score, format_derivation(d.root)) for d in got] == [
        (d.score, format_derivation(d.root)) for d in expected
    ]


def test_skipped_verbs_counts_task_verb_leaves(lexicon):
    """The skip count read off the tokens at a node's split equals the
    count read off the leaves of the node's daughters."""
    words = tokenize(kstep_sentence(4))
    stack = [d.root for d in parse_nbest(words, lexicon, n=sys.maxsize)]
    checked = 0
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            continue
        own = _skipped_verbs(node) - _skipped_verbs(node.left) - _skipped_verbs(node.right)
        assert skipped_verbs(node.rule, words, node.start, node.left.end, lexicon.task_verbs) == own
        checked += 1
        stack += [node.left, node.right]
    assert checked > 300


def test_leaf_spans_partition_sentence(lexicon):
    derivations = parse_nbest(
        tokenize("Reach B within 10 seconds and then reach C within 15 seconds."), lexicon
    )
    for derivation in derivations:
        spans = [(leaf.start, leaf.end) for leaf in leaves(derivation.root)]
        spans.sort()
        assert spans[0][0] == 0
        assert spans[-1][1] == 12
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert prev_end == next_start


def test_pretty_derivation_mentions_categories(lexicon):
    derivation = parse_nbest(tokenize("Reach B within 10 seconds."), lexicon)[0]
    text = pretty_derivation(derivation.root)
    assert "T/NP" in text and "'reach'" in text and "NUM" in text
    assert text.splitlines()[0].startswith("S  ")

