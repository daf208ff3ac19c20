import sys
import weakref
from collections import Counter, defaultdict

import pytest

from ambistl.lexicon import Basic, format_lexicon, load_lexicon
from ambistl.parser import (
    POST_MODIFIER_HEADS,
    CoverageError,
    EmptySentenceError,
    Leaf,
    NoParseError,
    fill_chart,
    inside,
    parse_nbest,
    pretty_derivation,
    tokenize,
)

from chart_reference import dense_fill_chart
from conftest import CUSTOM_ENTRIES, custom_lexicon, guarded_sentence, kstep_sentence
from derivation_reference import chart_order_derivations, format_derivation, reference_score


def leaves(tree) -> list[Leaf]:
    if isinstance(tree, Leaf):
        return [tree]
    return leaves(tree.left) + leaves(tree.right)


def listing(derivations) -> list[tuple[float, str]]:
    return [(d.score, format_derivation(d.root)) for d in derivations]


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
    with pytest.raises(CoverageError) as exc_info:  # quoted in part, kept whole
        parse_nbest(tokenize("reach b within " + "9" * 5000), lexicon)
    assert (exc_info.value.token, exc_info.value.position) == ("9" * 5000, 3)


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
    assert listing(top2) == listing(full[:2])


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
            assert reference_score(derivation.root, lexicon, words) == derivation.score


def test_scores_summed_while_unpacking_count_every_weight(lexicon):
    """Leaf and rule weights (dyadic, so any summation order is exact) and
    locality penalties all reach the scores summed while unpacking."""
    weighted = "\n".join(
        line.replace("| 0.0 |", "| -0.25 |") if line.startswith(("reach", "while")) else line
        for line in format_lexicon(lexicon).splitlines()
    )
    weighted = load_lexicon(weighted.replace("@rule ba 0.0", "@rule ba 0.5"))
    words = tokenize(kstep_sentence(4))
    derivations = parse_nbest(words, weighted, n=sys.maxsize)
    assert len({d.score for d in derivations}) > 1
    for derivation in derivations:
        assert reference_score(derivation.root, weighted, words) == derivation.score


def test_determinism_across_runs(lexicon, corpus):
    for sentence in corpus.values():
        tokens = tokenize(sentence)
        first = parse_nbest(tokens, lexicon)
        second = parse_nbest(tokens, lexicon)
        assert listing(first) == listing(second)


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
    number of task verbs score exactly alike, so the documented tie order,
    chart order, decides their order."""
    words = tokenize(kstep_sentence(5))
    derivations = parse_nbest(words, lexicon, n=sys.maxsize)
    assert len(derivations) == 42
    scores_by_skips = defaultdict(set)
    for d in derivations:
        scores_by_skips[_skipped_verbs(d.root)].add(d.score)
    assert len(scores_by_skips) > 1
    assert all(len(scores) == 1 for scores in scores_by_skips.values()), scores_by_skips
    assert listing(derivations) == chart_order_derivations(fill_chart(words, lexicon), lexicon)


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("n", [1, 5, 6, 10, 14, 15, 28, 29, 40, 68, 69, sys.maxsize])
def test_nbest_equals_top_n_of_the_full_sort(lexicon, k, n):
    """The top n are the first n of the whole chart-order listing, also
    when n cuts a tie group.  At k=5 the tie groups end at 14, 19, 23, 28
    and 42 derivations; at k=4 at 5, 7, 9 and 14."""
    tokens = tokenize(kstep_sentence(k))
    full = listing(parse_nbest(tokens, lexicon, n=sys.maxsize))
    assert full == chart_order_derivations(fill_chart(tokens, lexicon), lexicon)
    assert listing(parse_nbest(tokens, lexicon, n=n)) == full[:n]


def test_full_listing_is_the_chart_order_reference(lexicon, corpus):
    sentences = list(corpus.values()) + [kstep_sentence(k) for k in range(2, 7)]
    for sentence in sentences:
        words = tokenize(sentence)
        expected = chart_order_derivations(fill_chart(words, lexicon), lexicon)
        assert listing(parse_nbest(words, lexicon, n=sys.maxsize)) == expected, sentence


def test_inside_holds_only_the_items_a_pending_reader_needs(lexicon):
    """Whenever ``inside`` combines a backpointer, every live value belongs
    to that backpointer's item, to a root, or to an item that some
    backpointer not yet combined reads; the roots come back in
    ``chart.roots`` order."""
    chart = fill_chart(tokenize(guarded_sentence(4, "and then")), lexicon)
    roots = [(0, len(chart.words), cat) for cat in chart.roots]

    def daughters(item, back):
        (i, j, _), (_, k, cat_l, cat_r, _, _) = item, back
        return [(i, k, cat_l), (k, j, cat_r)]

    pending, seen, stack = Counter(), set(), list(roots)  # readers, found top-down
    while stack:
        item = stack.pop()
        if item not in seen:
            seen.add(item)
            for back in chart.cells[item[:2]][item[2]]:
                if isinstance(back, tuple):
                    pending.update(daughters(item, back))
                    stack += daughters(item, back)

    class Value:  # weakly referenceable
        item = None

    live = weakref.WeakSet()

    def start():
        value = Value()
        live.add(value)
        return value

    def combine(value, item, back, left, right):
        value.item = item
        assert all(v.item == item or v.item in roots or pending[v.item] for v in live)
        if isinstance(back, tuple):
            pending.subtract(daughters(item, back))
        return value

    assert [value.item for value in inside(chart, start, combine)] == roots
    assert set(pending.values()) == {0}


def test_chart_keeps_only_non_empty_cells(lexicon):
    """A span over which no category is built has no key in the chart; the
    43-word k=6 sentence has 946 spans, 105 of them non-empty."""
    words = tokenize(kstep_sentence(6))
    chart = fill_chart(words, lexicon)
    assert all(chart.cells.values())
    dense = dense_fill_chart(words, lexicon)
    assert (len(words), len(dense), len(chart.cells)) == (43, 946, 105)


@pytest.mark.parametrize("custom", [None, *CUSTOM_ENTRIES])
def test_sparse_fill_equals_the_dense_reference(lexicon, corpus, custom):
    """Visiting only non-empty cells builds the chart a loop over every
    split point builds, less its empty cells: the same spans, categories in
    the same order, and backpointer lists equal element by element and in
    order, each binary one with its rule weight and skipped task verbs."""
    lex = lexicon if custom is None else custom_lexicon(lexicon, custom)
    sentences = list(corpus.values()) + [kstep_sentence(k) for k in range(2, 11)]
    sentences += [guarded_sentence(k, joiner) for joiner in ("and then", "or") for k in range(2, 6)]
    sentences += [
        "Reach B within 10 seconds while reach C within 15 seconds.",
        "Avoid A within 10 seconds and then reach B within 5 seconds.",
        "Within 20 seconds, reach B within 10 seconds while avoiding A.",  # no parse
    ]  # the avoid-headed chain has no parse either under most lexicons
    parsed = 0
    for sentence in sentences:
        words = tokenize(sentence)
        dense = dense_fill_chart(words, lex)
        try:
            chart = fill_chart(words, lex)
        except NoParseError:
            assert not any(cat in dense[(0, len(words))] for cat in (Basic("S"), Basic("R")))
            continue
        assert all(chart.cells.values()), sentence
        assert set(chart.cells) == {span for span, cell in dense.items() if cell}
        for span, cell in chart.cells.items():
            assert list(cell) == list(dense[span]), (sentence, span)
            for cat, backs in cell.items():
                assert backs == dense[span][cat], (sentence, span, cat)
        parsed += 1
    assert parsed >= len(sentences) - 2


def test_skipped_verbs_counts_task_verb_leaves(lexicon):
    """The skip count the chart stores on a node's backpointer equals the
    count read off the leaves of the node's daughters."""
    words = tokenize(kstep_sentence(4))
    chart = fill_chart(words, lexicon)
    stack = [d.root for d in parse_nbest(words, lexicon, n=sys.maxsize)]
    checked = 0
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            continue
        own = _skipped_verbs(node) - _skipped_verbs(node.left) - _skipped_verbs(node.right)
        key = (node.rule, node.left.end, node.left.category, node.right.category)
        (stored,) = [
            back[5] for back in chart.cells[(node.start, node.end)][node.category]
            if isinstance(back, tuple) and back[:4] == key
        ]
        assert stored == own
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

