import json
import sys

import pytest

from ambistl.lexicon import format_lexicon, load_lexicon
from ambistl.parser import NoParseError, parse_nbest, tokenize
from ambistl.pipeline import (
    EmptyCandidateSetError,
    IllFormedMeaningError,
    aggregate,
    analyze,
    compose,
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
    # two eventually tasks leave the tail's anchor ambiguous
    with pytest.raises(IllFormedMeaningError):
        to_stl(parse_term("SEQ(AND(F(I(0, 10), phi_b), F(I(0, 15), phi_c)), F(I(0, 5), phi_d))"))


def test_sequence_head_may_be_a_guarded_task():
    """A head that is a conjunction holding one eventually task, found
    through nested conjunctions, takes the tail into that task."""
    guarded = "AND(F(I(0, 15), phi_c), G(I(0, 15), NOT(phi_a)))"
    got = to_stl(parse_term(f"SEQ({guarded}, F(I(0, 5), phi_d))"))
    expected = And(
        (
            F(Interval(0, 15), And((Atom("c"), F(Interval(0, 5), Atom("d"))))),
            G(Interval(0, 15), Not(Atom("a"))),
        )
    )
    assert got == expected
    nested = to_stl(
        parse_term(f"SEQ(SEQ(F(I(0, 10), phi_b), {guarded}), F(I(0, 5), phi_d))")
    )
    assert nested == F(Interval(0, 10), And((Atom("b"), expected)))


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
    assert result.candidates[0].score == pytest.approx(2.0)


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


def _with_while(lexicon, category):
    """The bundled lexicon plus the interval-sharing while as ``category``."""
    sharing = "lam q. lam p. lam i. AND(p(i), q(i))"
    return load_lexicon(format_lexicon(lexicon) + f"while | {category} | 0.0 | {sharing}\n")


def test_translate_counts_discards(lexicon):
    # the bundled lexicon builds no ill-formed derivation here, so a custom entry
    # whose category hides that its template still takes an interval forces one
    custom = _with_while(lexicon, "(S\\S)/T")
    result = translate("Reach B within 10 seconds while avoiding A.", custom)
    assert result.n_derivations == result.discarded_count + sum(
        c.support_count for c in result.candidates
    )
    assert result.discarded_count >= 1
    closed = _with_while(lexicon, "(S\\S)/S")
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
    sentence = kstep_sentence(3)
    for n in (1, 2, 40):
        candidate_set, reports = analyze(sentence, lexicon, n)
        assert candidate_set == translate(sentence, lexicon)
        assert len(reports) == min(n, candidate_set.n_derivations)
        formulas = {c.formula for c in candidate_set.candidates}
        assert all(r.error is None and r.formula in formulas for r in reports)
        scores = [r.score for r in reports]
        assert scores == sorted(scores, reverse=True)


def test_to_dict_schema(lexicon):
    result = translate("Reach B within 10 seconds.", lexicon)
    payload = result.to_dict()
    assert set(payload) == {"sentence", "n_derivations", "n_discarded", "candidates"}
    assert set(payload["candidates"][0]) == {"formula", "score", "probability", "support_count"}
    json.dumps(payload)  # must be serialisable


@pytest.mark.parametrize("k", [5, 6, 7])
def test_long_sentences_keep_every_reading(lexicon, k):
    """Every derivation counts, whatever ``n`` says: k-step sentences keep
    all k readings at the default and at n=1."""
    result = translate(kstep_sentence(k), lexicon)
    assert len(result.candidates) == k
    assert result.n_derivations == {5: 42, 6: 132, 7: 429}[k]
    assert sum(c.support_count for c in result.candidates) == result.n_derivations
    assert translate(kstep_sentence(k), lexicon, n=1) == result


def test_corpus_is_never_truncated(lexicon, corpus):
    for sentence in corpus.values():
        every = parse_nbest(tokenize(sentence), lexicon, n=sys.maxsize)
        assert translate(sentence, lexicon).n_derivations == len(every)


def _enumerated(sentence, lexicon):
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


MIDDLE_GUARD = (
    "Reach B within 10 seconds and then reach C within 15 seconds while avoiding A "
    "and then reach D within 5 seconds."
)
FOUR_WAY = "Within 20 seconds, reach B or reach C or reach D or reach A while avoiding A."


UNGUARDED_HEAD = "Avoid A within 10 seconds and then reach B within 5 seconds."
# A second reach with the bundled template and another weight: its meanings
# equal the first reach's without being the same derivations.
REACH_TWICE = "reach | T/NP | -0.5 | lam x. lam i. F(i, x)\n"


def test_while_clause_inside_a_chain_keeps_the_sequence(lexicon):
    """D's deadline runs from reaching C, whichever task the guard covers."""
    result = translate(MIDDLE_GUARD, lexicon)
    assert (result.n_derivations, result.discarded_count) == (3, 0)
    assert result.formulas() == [
        "F[0,10](F[0,15](F[0,5] phi_d & phi_c) & G[0,15] !phi_a & phi_b)",
        "(F[0,10](F[0,15](F[0,5] phi_d & phi_c) & phi_b) & G[0,25] !phi_a)",
    ]
    assert [c.support_count for c in result.candidates] == [2, 1]
    assert result.candidates[0].probability == pytest.approx(0.801, abs=1e-3)


def test_task_verbs_come_from_the_lexicon(lexicon):
    """A verb added as a one-token T/NP entry is counted by attachment
    locality as the bundled ones are."""
    visit = load_lexicon(format_lexicon(lexicon) + "visit | T/NP | 0.0 | lam x. lam i. F(i, x)\n")
    chain = "{0} B within 10 seconds and then {0} C within 15 seconds while avoiding A."
    reached = translate(chain.format("Reach"), visit)
    visited = translate(chain.format("Visit"), visit)
    assert visited.formulas() == reached.formulas()
    probabilities = [c.probability for c in visited.candidates]
    assert probabilities == [c.probability for c in reached.candidates]
    assert probabilities[0] > probabilities[1]


@pytest.mark.parametrize("custom", [None, "(S\\S)/T", "(S\\S)/S", "reach-twice"])
def test_translate_equals_enumerating_every_derivation(lexicon, corpus, custom):
    """The packed chart gives what enumerating every derivation gives:
    formulas, their order, support counts, discards and derivation counts
    exactly, probabilities within 1e-12."""
    if custom is None:
        lex = lexicon
    elif custom == "reach-twice":
        lex = load_lexicon(format_lexicon(lexicon) + REACH_TWICE)
    else:
        lex = _with_while(lexicon, custom)
    sentences = list(corpus.values()) + [MIDDLE_GUARD, FOUR_WAY, UNGUARDED_HEAD]
    sentences += [kstep_sentence(k) for k in range(2, 7 if custom is None else 5)]
    sentences += ["Reach B within 10 seconds while reach C within 15 seconds."]
    compared = discards = 0
    for sentence in sentences:
        try:
            want = _enumerated(sentence, lex)
        except (NoParseError, EmptyCandidateSetError) as exc:
            with pytest.raises(type(exc)):
                translate(sentence, lex)
            discards += isinstance(exc, EmptyCandidateSetError)
            continue
        discards += want.discarded_count
        got = translate(sentence, lex)
        assert got.formulas() == want.formulas(), sentence
        assert [c.support_count for c in got.candidates] == [
            c.support_count for c in want.candidates
        ]
        assert (got.n_derivations, got.discarded_count) == (
            want.n_derivations,
            want.discarded_count,
        )
        for cand, ref in zip(got.candidates, want.candidates):
            assert abs(cand.probability - ref.probability) <= 1e-12
        compared += 1
    assert compared >= len(sentences) - 2
    assert discards > 0  # the discard path is exercised


def test_translate_deterministic_output(lexicon, corpus):
    for sentence in corpus.values():
        first = translate(sentence, lexicon).to_dict()
        second = translate(sentence, lexicon).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
