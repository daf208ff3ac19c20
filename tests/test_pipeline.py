import json
import sys

import pytest

from ambistl.lexicon import format_lexicon, load_lexicon
from ambistl.parser import NoParseError
from ambistl.pipeline import (
    EmptyCandidateSetError,
    IllFormedMeaningError,
    aggregate,
    analyze,
    to_stl,
    translate,
)
from ambistl.semantics import App, AtomC, Con, IntC, Lam, Var, parse_term
from ambistl.stl import And, Atom, F, G, Interval, Not, Or, canonicalize, format_formula

from conftest import kstep_sentence
from reference_formulas import REFERENCE

I10 = Con("I", (IntC(0), IntC(10)))
I15 = Con("I", (IntC(0), IntC(15)))

B = AtomC("b")


def _canon_set(formulas):
    return {format_formula(canonicalize(f)) for f in formulas}


# --- conversion -----------------------------------------------------------------

def test_sequence_becomes_tail_insertion():
    meaning = parse_term("SEQ(F(I(0, 10), phi_b), F(I(0, 15), phi_c))")
    expected = F(Interval(0, 10), And((Atom("b"), F(Interval(0, 15), Atom("c")))))
    assert canonicalize(to_stl(meaning)) == canonicalize(expected)


def test_nested_sequence_insertion_left_association():
    meaning = parse_term("SEQ(SEQ(F(I(0, 10), phi_b), F(I(0, 15), phi_c)), F(I(0, 5), phi_d))")
    expected = F(
        Interval(0, 10),
        And((Atom("b"), F(Interval(0, 15), And((Atom("c"), F(Interval(0, 5), Atom("d"))))))),
    )
    assert canonicalize(to_stl(meaning)) == canonicalize(expected)


def test_sequence_association_variants_converge():
    left = parse_term("SEQ(SEQ(F(I(0, 10), phi_b), F(I(0, 15), phi_c)), F(I(0, 5), phi_d))")
    right = parse_term("SEQ(F(I(0, 10), phi_b), SEQ(F(I(0, 15), phi_c), F(I(0, 5), phi_d)))")
    assert canonicalize(to_stl(left)) == canonicalize(to_stl(right))


def test_residual_lambda_is_ill_formed():
    with pytest.raises(IllFormedMeaningError):
        to_stl(Lam("i", Con("F", (Var("i"), B))))


def test_residual_var_is_ill_formed():
    with pytest.raises(IllFormedMeaningError):
        to_stl(Con("F", (I10, Var("x"))))


def test_stuck_application_is_ill_formed():
    with pytest.raises(IllFormedMeaningError):
        to_stl(Con("AND", (App(parse_term("OR(lam i. F(i, phi_b), lam i. F(i, phi_c))"), I10), B)))


def test_sequence_head_must_be_eventually():
    with pytest.raises(IllFormedMeaningError):
        to_stl(parse_term("SEQ(G(I(0, 10), phi_b), F(I(0, 15), phi_c))"))


def test_root_interval_distributes_over_disjunction(lexicon):
    # the time bound reaches each disjunct through the lexicon (category D),
    # so conversion never sees a root application
    open_b = parse_term("lam i. F(i, phi_b)")
    open_guarded_c = parse_term("lam i. AND(F(i, phi_c), G(i, NOT(phi_a)))")
    with pytest.raises(IllFormedMeaningError, match="residual App"):
        to_stl(App(Con("OR", (open_b, open_guarded_c)), I10))
    result = translate("Within 10 seconds, reach B or reach C while avoiding A.", lexicon)
    expected = Or(
        (
            F(Interval(0, 10), Atom("b")),
            And((F(Interval(0, 10), Atom("c")), G(Interval(0, 10), Not(Atom("a"))))),
        )
    )
    assert format_formula(canonicalize(expected)) in result.formulas()
    assert result.discarded_count == 0


def test_root_interval_rejects_closed_branch():
    # a branch that already carries its own bound cannot absorb another one
    meaning = App(parse_term("OR(F(I(0, 10), phi_b), lam i. F(i, phi_c))"), I15)
    with pytest.raises(IllFormedMeaningError):
        to_stl(meaning)


def test_extent_anchored_guard_resolution():
    guard = parse_term("lam i. G(i, NOT(phi_a))")
    anchor = parse_term("SEQ(F(I(0, 10), phi_b), F(I(0, 15), phi_c))")
    meaning = Con("AND", (anchor, Con("EXTG", (guard, anchor))))
    got = canonicalize(to_stl(meaning))
    expected = canonicalize(
        And(
            (
                F(Interval(0, 10), And((Atom("b"), F(Interval(0, 15), Atom("c"))))),
                G(Interval(0, 25), Not(Atom("a"))),
            )
        )
    )
    assert got == expected


# --- aggregation ------------------------------------------------------------------

def test_aggregate_exp_sum_normalisation():
    phi = F(Interval(0, 10), Atom("b"))
    psi = F(Interval(0, 15), Atom("c"))
    result = aggregate([(phi, 0.0), (phi, 0.0), (psi, 0.0)])
    assert [c.probability for c in result.candidates] == [
        pytest.approx(2 / 3),
        pytest.approx(1 / 3),
    ]
    assert result.candidates[0].support_count == 2
    assert result.candidates[0].derivation_ids == (0, 1)


def test_aggregate_single_formula():
    result = aggregate([(Atom("b"), -1.5)])
    assert len(result.candidates) == 1
    assert result.candidates[0].probability == pytest.approx(1.0)


def test_aggregate_empty_is_an_error():
    with pytest.raises(EmptyCandidateSetError):
        aggregate([])


def test_aggregate_groups_by_canonical_form():
    one = And((Atom("b"), Atom("c")))
    other = And((Atom("c"), Atom("b")))
    result = aggregate([(one, 0.0), (other, 0.0)])
    assert len(result.candidates) == 1
    assert result.candidates[0].support_count == 2


def test_aggregate_support_monotonicity():
    phi = F(Interval(0, 10), Atom("b"))
    psi = F(Interval(0, 15), Atom("c"))
    before = aggregate([(phi, 0.0), (psi, 0.0)])
    after = aggregate([(phi, 0.0), (psi, 0.0), (phi, -0.3)])

    def prob(result, formula):
        key = format_formula(canonicalize(formula))
        for cand in result.candidates:
            if format_formula(cand.formula) == key:
                return cand.probability
        raise AssertionError("missing candidate")

    assert prob(after, phi) > prob(before, phi)
    assert prob(after, psi) < prob(before, psi)


# --- end-to-end translation ---------------------------------------------------------

def test_translate_simple_reach(lexicon):
    result = translate("Reach B within 10 seconds.", lexicon)
    assert result.formulas() == ["F[0,10] phi_b"]
    assert result.candidates[0].probability == pytest.approx(1.0)


def test_translate_scope_ambiguity_pair(lexicon):
    result = translate("Within 10 seconds, reach B or reach C while avoiding A.", lexicon)
    assert _canon_set(c.formula for c in result.candidates) == _canon_set(REFERENCE["S8"])


def test_translate_five_way_ambiguity(lexicon):
    result = translate(
        "Reach B within 10 seconds and then reach C within 15 seconds or reach D "
        "within 5 seconds while avoiding A.",
        lexicon,
    )
    assert len(result.candidates) == 5
    assert _canon_set(c.formula for c in result.candidates) == _canon_set(REFERENCE["S12"])


def test_translate_counts_discards(lexicon):
    # the bundled lexicon builds no ill-formed derivation, so a custom entry
    # whose category hides that its template still takes an interval forces one
    sharing = "lam q. lam p. lam i. AND(p(i), q(i))"
    custom = load_lexicon(format_lexicon(lexicon) + f"while | (S\\S)/T | 0.0 | {sharing}\n")
    result = translate("Reach B within 10 seconds while avoiding A.", custom)
    assert result.n_derivations == result.discarded_count + sum(
        c.support_count for c in result.candidates
    )
    assert result.discarded_count >= 1
    closed = load_lexicon(format_lexicon(lexicon) + f"while | (S\\S)/S | 0.0 | {sharing}\n")
    with pytest.raises(EmptyCandidateSetError, match="all 1 derivations were discarded"):
        translate("Reach B within 10 seconds while reach C within 15 seconds.", closed)


def test_sentence_without_a_reading_fails_in_the_parser(lexicon):
    with pytest.raises(NoParseError):
        translate("Within 20 seconds, reach B within 10 seconds while avoiding A.", lexicon)


def test_probabilities_sum_to_one(lexicon, corpus):
    for sentence in corpus.values():
        result = translate(sentence, lexicon)
        assert sum(c.probability for c in result.candidates) == pytest.approx(1.0, abs=1e-9)


def test_candidates_fewer_than_derivations(lexicon, corpus):
    for sentence in corpus.values():
        result = translate(sentence, lexicon)
        assert len(result.candidates) <= result.n_derivations


def test_sequence_dedup_many_derivations(lexicon):
    result = translate(
        "Reach B within 10 seconds and then reach C within 15 seconds and then "
        "reach D within 5 seconds.",
        lexicon,
    )
    assert len(result.candidates) == 1
    assert result.candidates[0].support_count >= 2


def test_analyze_reports_align_with_candidates(lexicon):
    candidate_set, reports = analyze(
        "Within 10 seconds, reach B or reach C while avoiding A.", lexicon
    )
    assert len(reports) == candidate_set.n_derivations
    discarded = [r for r in reports if r.error is not None]
    assert len(discarded) == candidate_set.discarded_count
    reported_ids = {r.index for r in reports if r.error is None}
    candidate_ids = {i for c in candidate_set.candidates for i in c.derivation_ids}
    assert candidate_ids == reported_ids


def test_to_dict_schema(lexicon):
    result = translate("Reach B within 10 seconds.", lexicon)
    payload = result.to_dict()
    assert set(payload) == {"sentence", "n_derivations", "n_discarded", "truncated", "candidates"}
    assert payload["truncated"] is False
    assert set(payload["candidates"][0]) == {"formula", "score", "probability", "support_count"}
    json.dumps(payload)  # must be serialisable


@pytest.mark.parametrize("k", [5, 6])
def test_truncation_is_flagged_on_long_sentences(lexicon, k):
    result = translate(kstep_sentence(k), lexicon)
    assert result.truncated and result.to_dict()["truncated"] is True
    assert result.n_derivations == 40


def test_corpus_is_never_truncated(lexicon, corpus):
    for sentence in corpus.values():
        assert not translate(sentence, lexicon).truncated


def test_truncated_only_when_derivations_are_cut(lexicon):
    sentence = "Within 10 seconds, reach B or reach C while avoiding A."
    total = translate(sentence, lexicon, n=sys.maxsize).n_derivations
    assert not translate(sentence, lexicon, n=total).truncated
    cut = translate(sentence, lexicon, n=total - 1)
    assert cut.truncated and cut.n_derivations == total - 1


def test_aggregate_is_untruncated_by_default():
    assert aggregate([(Atom("b"), 0.0)]).truncated is False
    assert aggregate([(Atom("b"), 0.0)], truncated=True).truncated is True


def test_translate_deterministic_output(lexicon, corpus):
    for sentence in corpus.values():
        first = translate(sentence, lexicon).to_dict()
        second = translate(sentence, lexicon).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
