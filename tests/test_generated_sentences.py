"""Differential test on sentences drawn from the lexicon's own grammar.

The strategy expands a root category top-down (grammar-based sentence
generation, Purdom 1972): a category is the surface of an entry of that
category, a numeral for NUM, or the daughters ``X/Y Y`` or ``Y X\\Y`` of a
functor category with result ``X`` that ends some entry's category.  Every
drawn sentence therefore parses.  Depth bounds the derivation count, so
enumerating every derivation stays cheap.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambistl.lexicon import NUM, ROOT_CATEGORIES, Basic, Slash
from ambistl.parser import fill_chart, inside, parse_nbest, tokenize
from ambistl.pipeline import EmptyCandidateSetError, IllFormedMeaningError, analyze, translate
from ambistl.regions import load_regions
from ambistl.stl import EmptyWindowError, extent, format_formula, parse_formula
from ambistl.trajectory import Trajectory, robustness

from conftest import (
    CUSTOM_ENTRIES, REPO, assert_rows_are_calls_alone, custom_lexicon, kstep_sentence,
)
from conversion_reference import reference_formula
from derivation_reference import enumerated
from oracle import brute_force_robustness
from packing_reference import reference_canonicalize

# Depth 7 reaches chains, disjunctions and guards inside one another; the
# bundled lexicon gives at most a few hundred derivations per sentence there.
MAX_DEPTH = 7


def grammar(lexicon):
    """The productions of ``lexicon``: per category, the surfaces of its
    entries and its daughter pairs, one pair per entry that gives it; and
    the fewest levels each category takes to expand into words."""
    surfaces, splits = {}, {}
    for entry in lexicon.all_entries():
        surfaces.setdefault(entry.category, []).append(" ".join(entry.surface))
        functor = entry.category
        while isinstance(functor, Slash):
            pair = (functor, functor.argument)
            splits.setdefault(functor.result, []).append(pair if functor.slash == "/" else pair[::-1])
            functor = functor.result
    height = {cat: 1 for cat in [*surfaces, NUM]}
    changed = True
    while changed:
        changed = False
        for cat, pairs in splits.items():
            for pair in pairs:
                if all(daughter in height for daughter in pair):
                    levels = 1 + max(height[daughter] for daughter in pair)
                    if levels < height.get(cat, levels + 1):
                        height[cat], changed = levels, True
    return surfaces, splits, height


def sentences(lexicon, depth: int = MAX_DEPTH):
    """Sentences of ``lexicon`` whose derivation is at most ``depth`` deep."""
    surfaces, splits, height = grammar(lexicon)

    @st.composite
    def draw_sentence(draw):
        def expand(cat, depth):
            options = list(surfaces.get(cat, ()))
            if cat == NUM:
                options.append(None)
            options += [
                pair for pair in splits.get(cat, ())
                if all(height.get(daughter, depth) < depth for daughter in pair)
            ]
            choice = draw(st.sampled_from(options))
            if choice is None:
                return [str(draw(st.integers(0, 60)))]
            if isinstance(choice, str):
                return [choice]
            return expand(choice[0], depth - 1) + expand(choice[1], depth - 1)

        roots = [Basic(name) for name in ROOT_CATEGORIES]
        root = draw(st.sampled_from([cat for cat in roots if height.get(cat, depth + 1) <= depth]))
        return " ".join(expand(root, depth)) + "."

    return draw_sentence()


# A short random walk over the demo regions, on which the oracle can check
# every candidate at every t.
REGIONS = load_regions((REPO / "demos" / "data" / "regions.txt").read_text(encoding="utf-8"))
WALK = Trajectory(4.0 + np.cumsum(np.random.default_rng(7).normal(0.0, 0.8, (60, 2)), axis=0))


def check_robustness_against_oracle(formula) -> None:
    """``robustness`` of ``formula`` agrees with the brute-force oracle at
    every t of :data:`WALK`: the same value within 1e-12, or both find an
    empty window."""
    points = WALK.states.tolist()
    boxes = {name: (box.xmin, box.ymin, box.xmax, box.ymax) for name, box in REGIONS.boxes.items()}
    for t in range(len(points)):
        try:
            want = brute_force_robustness(formula, points, boxes, t)
        except ValueError:
            with pytest.raises(EmptyWindowError):
                robustness(formula, WALK, REGIONS, t)
            continue
        got = robustness(formula, WALK, REGIONS, t)
        assert abs(got - want) <= 1e-12, f"{format_formula(formula)} at t={t}: {got} != {want}"


@pytest.mark.parametrize("k", [3, 4, 5])
def test_nested_kstep_readings_agree_with_oracle(lexicon, k):
    """Each reading of a k-step sentence with bounds of at most 3 s nests k
    eventualities, and its horizon fits the walk; its robustness agrees with
    the oracle at every t, windows clipped at the walk's end included."""
    candidate_set = translate(kstep_sentence(k, bounds=(1, 2, 3)), lexicon)
    assert len(candidate_set.candidates) == k
    for cand in candidate_set.candidates:
        assert format_formula(cand.formula).count("F[") == k
        assert extent(cand.formula) < WALK.horizon
        check_robustness_against_oracle(cand.formula)


def count_derivations(total: int, item, back, left, right) -> int:
    """A counting reader of :func:`inside`: an item's derivations."""
    return total + (1 if left is None else left * right)


def reference_support(reports) -> Counter:
    """Derivations per formula rendering, by the reference conversion of
    each listed meaning."""
    support = Counter()
    for report in reports:
        try:
            support[format_formula(reference_formula(report.meaning))] += 1
        except IllFormedMeaningError:
            continue
    return support


def check_against_enumeration(sentence: str, lex):
    """``translate`` and ``analyze`` give what enumerating every derivation
    gives.  Every candidate is in the reference canonical form, rendered by
    ``format_formula``, parses back to itself, and has as many derivations
    as the reference conversion gives it, so a fault that both paths share
    is still caught.  The full listing of ``analyze`` groups into the
    candidates by formula, its discarded reports number the discards, the
    probabilities sum to one, and counting over :func:`inside` counts every
    derivation.  Returns the candidate set, or ``None`` when every
    derivation is discarded."""
    words = tokenize(sentence)
    n_trees = len(parse_nbest(words, lex, n=sys.maxsize))
    assert sum(inside(fill_chart(words, lex), int, count_derivations)) == n_trees
    try:
        want = enumerated(sentence, lex)
    except EmptyCandidateSetError:
        with pytest.raises(EmptyCandidateSetError):
            translate(sentence, lex)
        with pytest.raises(EmptyCandidateSetError) as caught:
            analyze(sentence, lex, n=sys.maxsize)
        reports = caught.value.reports
        assert len(reports) == caught.value.n_derivations == n_trees
        assert all(report.error is not None for report in reports)
        assert not reference_support(reports)
        return
    got = translate(sentence, lex)
    assert got.formulas() == want.formulas()
    assert [c.support_count for c in got.candidates] == [c.support_count for c in want.candidates]
    assert (got.n_derivations, got.discarded_count) == (want.n_derivations, want.discarded_count)
    for cand, ref in zip(got.candidates, want.candidates):
        assert abs(cand.probability - ref.probability) <= 1e-12
    assert abs(sum(cand.probability for cand in got.candidates) - 1.0) <= 1e-12
    for cand in got.candidates:
        assert cand.formula == reference_canonicalize(cand.formula)
        assert cand.text == format_formula(cand.formula)
        assert parse_formula(cand.text) == cand.formula

    listed_set, reports = analyze(sentence, lex, n=sys.maxsize)
    assert listed_set == got
    assert len(reports) == got.n_derivations == n_trees
    listed = Counter(report.formula for report in reports if report.error is None)
    assert listed == {cand.formula: cand.support_count for cand in got.candidates}
    assert sum(report.error is not None for report in reports) == got.discarded_count
    assert reference_support(reports) == {cand.text: cand.support_count for cand in got.candidates}
    return got


@pytest.fixture(scope="module", params=list(CUSTOM_ENTRIES))
def custom(request, lexicon):
    return custom_lexicon(lexicon, request.param)


# An example's time depends on its sentence and the machine's load, so no
# deadline applies.
@settings(deadline=None)
@given(data=st.data())
def test_translate_equals_enumeration_on_generated_sentences(lexicon, data):
    got = check_against_enumeration(data.draw(sentences(lexicon), label="sentence"), lexicon)
    for cand in got.candidates if got is not None else ():
        check_robustness_against_oracle(cand.formula)
    if got is not None:
        assert_rows_are_calls_alone(got, WALK, REGIONS)


# Each custom lexicon takes its own draws: ill-formed whiles, stuck
# applications and merged meanings of two entries.
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_translate_equals_enumeration_on_generated_sentences_of_custom_lexicons(custom, data):
    check_against_enumeration(data.draw(sentences(custom), label="sentence"), custom)
