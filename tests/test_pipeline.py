import json
import re
import sys

import pytest

import ambistl.lexicon as lexicon_module
import ambistl.parser as parser
import ambistl.pipeline as pipeline
from ambistl.lexicon import format_lexicon, load_lexicon
from ambistl.parser import NoParseError, parse_nbest, tokenize
from ambistl.pipeline import (
    EmptyCandidateSetError,
    IllFormedMeaningError,
    ScoreRangeError,
    aggregate,
    analyze,
    to_stl,
    translate,
)
from ambistl.semantics import App, Con, IntC, Lam, ReductionBudgetError, Var, parse_term
from ambistl.stl import (
    And, Atom, F, Formula, G, Interval, Not, Or, canonicalize, format_formula, parse_formula,
)

from conftest import CUSTOM_ENTRIES, custom_lexicon, guarded_sentence, kstep_sentence
from derivation_reference import enumerated
from packing_reference import reference_canonicalize
from reference_formulas import REFERENCE

I10 = Con("I", (IntC(0), IntC(10)))
I15 = Con("I", (IntC(0), IntC(15)))

B = Atom("b")


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


def test_sequence_head_must_be_eventually(lexicon):
    with pytest.raises(IllFormedMeaningError):
        to_stl(parse_term("SEQ(G(I(0, 10), phi_b), F(I(0, 15), phi_c))"))
    # two eventually tasks leave the tail's anchor ambiguous
    with pytest.raises(IllFormedMeaningError):
        to_stl(parse_term("SEQ(AND(F(I(0, 10), phi_b), F(I(0, 15), phi_c)), F(I(0, 5), phi_d))"))
    # a disjunction is no eventually task, even with one eventually disjunct
    with pytest.raises(IllFormedMeaningError):
        to_stl(parse_term("SEQ(OR(F(I(0, 10), phi_b), G(I(0, 10), NOT(phi_a))), F(I(0, 5), phi_c))"))
    sentence = "Reach B within 10 seconds or avoid A within 10 seconds and then reach C within 5 seconds."
    with pytest.raises(EmptyCandidateSetError, match="all 2 derivations"):
        translate(sentence, lexicon)


def test_sequence_head_may_be_a_guarded_task():
    """A head whose canonical form is a conjunction holding one eventually
    task takes the tail into that task; the head is read in its canonical
    form, so a nested head is flattened and sorted first."""
    guarded = "AND(F(I(0, 15), phi_c), G(I(0, 15), NOT(phi_a)))"
    got = to_stl(parse_term(f"SEQ({guarded}, F(I(0, 5), phi_d))"))
    c_then_d = F(Interval(0, 15), And((F(Interval(0, 5), Atom("d")), Atom("c"))))
    not_a = G(Interval(0, 15), Not(Atom("a")))
    assert got == And((c_then_d, not_a))
    nested = to_stl(
        parse_term(f"SEQ(SEQ(F(I(0, 10), phi_b), {guarded}), F(I(0, 5), phi_d))")
    )
    assert nested == F(Interval(0, 10), And((c_then_d, not_a, Atom("b"))))


def test_sequence_head_is_read_in_canonical_form():
    """Duplicate eventually tasks are one task in canonical form, so the
    head takes the tail; a double negation hides no task."""
    got = to_stl(parse_term("SEQ(AND(F(I(0, 10), phi_b), F(I(0, 10), phi_b)), F(I(0, 5), phi_c))"))
    assert got == F(Interval(0, 10), And((F(Interval(0, 5), Atom("c")), Atom("b"))))
    hidden = to_stl(parse_term("SEQ(NOT(NOT(F(I(0, 10), phi_b))), F(I(0, 5), phi_c))"))
    assert hidden == got


def test_root_interval_distributes_over_disjunction(lexicon):
    # the time bound reaches each disjunct through the lexicon (category D),
    # so conversion never sees a root application
    open_b = parse_term("lam i. F(i, phi_b)")
    open_guarded_c = parse_term("lam i. AND(F(i, phi_c), G(i, NOT(phi_a)))")
    with pytest.raises(IllFormedMeaningError, match="^function is not a formula position$"):
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


@pytest.mark.parametrize(
    "scored", [{"b": 800.0}, {"b": -800.0}, {"b": 709.0, "c": 709.0, "d": 709.0}]
)
def test_aggregate_scores_outside_float_range(scored):
    """exp(800) overflows, exp(-800) underflows to 0, and three exp(709),
    each a float, sum past the largest float."""
    with pytest.raises(ScoreRangeError):
        aggregate([(Atom(name), score) for name, score in scored.items()])


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
    # the bundled lexicon builds no ill-formed derivation here, so a custom entry
    # whose category hides that its template still takes an interval forces one
    custom = custom_lexicon(lexicon, "(S\\S)/T")
    result = translate("Reach B within 10 seconds while avoiding A.", custom)
    assert result.n_derivations == result.discarded_count + sum(
        c.support_count for c in result.candidates
    )
    assert result.discarded_count >= 1
    closed = custom_lexicon(lexicon, "(S\\S)/S")
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


def test_analyze_fills_one_chart(lexicon, monkeypatch):
    """Both readers, the trace and the candidate set, read one chart."""
    calls = []

    def counting_fill_chart(*args):
        calls.append(args)
        return fill_chart(*args)

    fill_chart = parser.fill_chart
    for module in (parser, pipeline):
        monkeypatch.setattr(module, "fill_chart", counting_fill_chart)
    analyze(kstep_sentence(3), lexicon, 5)
    assert len(calls) == 1


THREE_TASKS = (
    "Reach B within 10 seconds and then reach C within 15 seconds "
    "and then reach D within 5 seconds."
)


@pytest.mark.parametrize(
    "weight, sentence",
    [
        (800.0, "Reach B within 10 seconds."),  # exp(800) overflows
        (-300.0, THREE_TASKS),  # exp(-900) underflows to 0: a zero total
        (300.0, THREE_TASKS),  # exp(900) is inf: inf / inf would be NaN
    ],
)
def test_translate_scores_outside_float_range(lexicon, weight, sentence):
    text = format_lexicon(lexicon).replace("seconds | UNIT | 0.0", f"seconds | UNIT | {weight}")
    with pytest.raises(ScoreRangeError, match="outside the float range"):
        translate(sentence, load_lexicon(text))


def test_calls_without_a_lexicon_load_the_bundled_one_once(monkeypatch):
    """The bundled file is read and parsed once per process, not per call."""
    loads = []
    load_lexicon_once = lexicon_module.load_lexicon

    def counting_load(source):
        loads.append(source)
        return load_lexicon_once(source)

    monkeypatch.setattr(lexicon_module, "load_lexicon", counting_load)
    pipeline._bundled_lexicon.cache_clear()
    sentence = "Reach B within 10 seconds and then reach C within 15 seconds."
    assert translate(sentence) == translate(sentence)
    analyze(sentence)
    assert len(loads) == 1


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


MIDDLE_GUARD = (
    "Reach B within 10 seconds and then reach C within 15 seconds while avoiding A "
    "and then reach D within 5 seconds."
)
FOUR_WAY = "Within 20 seconds, reach B or reach C or reach D or reach A while avoiding A."


UNGUARDED_HEAD = "Avoid A within 10 seconds and then reach B within 5 seconds."
CLOSED_WHILE = "Reach B within 10 seconds while reach C within 15 seconds."
# Sequence heads whose eventually tasks are duplicates up to canonical form.
DUPLICATE_HEAD = "Reach B while reach B within 10 seconds and then reach C within 5 seconds."
DUPLICATE_TASKS = (
    "Reach B within 10 seconds while reach B within 10 seconds "
    "and then reach C within 5 seconds."
)


# The tail meets two eventually tasks inside an F and is conjoined beside them.
TWO_TASKS_IN_A_STEP = (
    "Reach B within 20 seconds and then reach C while reach D within 10 seconds "
    "and then reach A within 5 seconds."
)


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


def test_a_tail_beside_two_eventually_tasks(lexicon):
    """Two eventually tasks inside an F take the tail beside them; the
    bracketing that puts them at the sequence head is discarded."""
    result, reports = analyze(TWO_TASKS_IN_A_STEP, lexicon)
    assert result.formulas() == ["F[0,20](F[0,10] phi_c & F[0,10] phi_d & F[0,5] phi_a & phi_b)"]
    assert (result.n_derivations, result.discarded_count) == (2, 1)
    assert [r.error for r in reports] == ["sequence head is not an eventually task", None]


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


SELF_APPLY = "zz | NP | 0.0 | lam x. x(x)\n"


def test_reduction_budget_holds_inside_a_composition(lexicon):
    """Each template has a normal form; applying one to the other has none,
    and the compiled application counts its contractions against the budget."""
    lex = load_lexicon(format_lexicon(lexicon) + "yy | T/NP | 0.0 | lam x. x(x)\n" + SELF_APPLY)
    with pytest.raises(ReductionBudgetError, match="no normal form within 10000 contractions"):
        translate("yy zz within 10 seconds", lex)


NESTED_SELF_APPLY = (
    "yy | T/NP | 0.0 | lam x. AND(x(x), phi_a)\n"
    "zz | NP | 0.0 | lam x. AND(x(x), phi_a)\n"
)


def test_nested_self_application_has_no_normal_form(lexicon):
    """A self-application under a constructor nests a call per contraction;
    past the recursion limit, long before the contraction budget, both
    paths fail as having no normal form instead of crashing."""
    lex = load_lexicon(format_lexicon(lexicon) + NESTED_SELF_APPLY)
    sentence = "yy zz within 10 seconds"
    with pytest.raises(ReductionBudgetError, match="no normal form within the recursion limit"):
        translate(sentence, lex)
    with pytest.raises(ReductionBudgetError, match="no normal form within the recursion limit"):
        analyze(sentence, lex)


def test_a_closure_is_not_normalized_under_its_binder(lexicon):
    """A composition whose value is a closure is evaluated only when it is
    applied: a root closure is discarded, where reducing the term diverges
    under its binder."""
    yy = "yy | S/NP | 0.0 | lam x. lam i. x(x)\n"
    lex = load_lexicon(format_lexicon(lexicon) + yy + SELF_APPLY)
    with pytest.raises(EmptyCandidateSetError, match="all 1 derivations"):
        translate("yy zz", lex)
    with pytest.raises(ReductionBudgetError):
        enumerated("yy zz", lex)


def test_applying_a_converted_meaning_is_discarded_and_counted(lexicon):
    """The packing pass hands a template its argument's converted formula;
    a template that applies it as a function builds a stuck application,
    discarded and counted as the per-tree path does."""
    lex = custom_lexicon(lexicon, "apply-converted")
    candidate_set, reports = analyze(CLOSED_WHILE, lex)
    assert (candidate_set.n_derivations, candidate_set.discarded_count) == (2, 1)
    assert candidate_set.formulas() == ["(F[0,10] phi_b & F[0,15] phi_c)"]
    assert [r.error is None for r in reports] == [True, False]
    assert reports[1].error.startswith("residual App in meaning")


def test_packing_reads_a_duplicate_task_once(lexicon):
    """``F b & G !a`` and ``F b & (F b & G !a)`` have one canonical form,
    which holds one eventually task, so both take the sequence's tail and
    pack into one entry, as enumerating the derivations gives."""
    still = "still | S\\S | 0.0 | lam p. AND(p, {})\n"
    guard = "G(I(0, 1), NOT(phi_a))"
    lex = load_lexicon(
        format_lexicon(lexicon) + still.format(guard) + still.format(f"AND(p, {guard})")
    )
    sentence = "Reach B within 10 seconds still and then reach C within 5 seconds."
    got, want = translate(sentence, lex), enumerated(sentence, lex)
    assert (got.n_derivations, got.discarded_count) == (2, 0)
    assert got.formulas() == ["(F[0,10](F[0,5] phi_c & phi_b) & G[0,1] !phi_a)"]
    assert [c.support_count for c in got.candidates] == [2]
    assert got == want


def test_packing_key_groups_as_the_reference_does(lexicon, corpus, monkeypatch):
    """Every formula the packing pass packs is built in the uncached
    reference canonical form; its key is that form's rendering, and its
    entry holds a canonical node, which keeps that rendering."""
    seen = []
    pack_one = pipeline._pack

    def recording_pack(merged, value, weight, count):
        pack_one(merged, value, weight, count)
        if isinstance(value, Formula):
            seen.append((value, value._canonical, merged[value._canonical][0]))

    monkeypatch.setattr(pipeline, "_pack", recording_pack)

    def pack(sentence, lex):
        try:
            pipeline.pack_meanings(parser.fill_chart(tokenize(sentence), lex))
        except (NoParseError, EmptyCandidateSetError):
            pass

    sentences = list(corpus.values()) + [kstep_sentence(k) for k in range(2, 9)]
    sentences += [guarded_sentence(k, joiner) for joiner in ("and then", "or") for k in range(2, 7)]
    for sentence in sentences + [DUPLICATE_HEAD]:
        pack(sentence, lexicon)
    for custom in CUSTOM_ENTRIES:
        lex = custom_lexicon(lexicon, custom)
        extra = [kstep_sentence(k) for k in range(2, 5)]
        extra += [guarded_sentence(k, joiner) for joiner in ("and then", "or") for k in (2, 3, 4)]
        for sentence in list(corpus.values()) + extra + [DUPLICATE_TASKS]:
            pack(sentence, lex)
    for formula, key, entry in seen:
        reference = reference_canonicalize(formula)
        assert formula == entry == reference
        assert key == entry._canonical == format_formula(reference)
    assert len({key for _, key, _ in seen}) < len(seen)  # the pass merges meanings


@pytest.mark.parametrize("custom", [None, *CUSTOM_ENTRIES])
def test_translate_equals_enumerating_every_derivation(lexicon, corpus, custom):
    """The packed chart gives what enumerating every derivation gives:
    formulas, their order, support counts, discards and derivation counts
    exactly, probabilities within 1e-12."""
    lex = lexicon if custom is None else custom_lexicon(lexicon, custom)
    sentences = list(corpus.values()) + [MIDDLE_GUARD, FOUR_WAY, UNGUARDED_HEAD, CLOSED_WHILE]
    sentences += [DUPLICATE_HEAD, DUPLICATE_TASKS, TWO_TASKS_IN_A_STEP]
    sentences += [kstep_sentence(k) for k in range(2, 7 if custom is None else 5)]
    sentences += [guarded_sentence(k, joiner) for joiner in ("and then", "or") for k in (2, 3, 4)]
    uncompared, discards = set(), 0
    for sentence in sentences:
        try:
            want = enumerated(sentence, lex)
        except (NoParseError, EmptyCandidateSetError) as exc:
            with pytest.raises(type(exc)):
                translate(sentence, lex)
            discards += isinstance(exc, EmptyCandidateSetError)
            uncompared.add(sentence)
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
    # Only the inputs built to have no reading under some lexicon go uncompared.
    assert uncompared <= {UNGUARDED_HEAD, CLOSED_WHILE, DUPLICATE_TASKS}
    assert discards > 0  # the discard path is exercised


@pytest.mark.parametrize(
    "template, reason",
    [
        ("p(I(n, 0))", "invalid interval [10,0]"),
        ("p(n)", "not a literal interval: 10"),
        ("AND(p(I(0, n)), I(0, n))", "Interval is not a formula position"),
    ],
)
def test_ill_formed_conversions_are_discarded_on_both_paths(lexicon, template, reason):
    """A second trailing within whose template builds a bad interval, puts
    a number where an interval goes, or puts an interval where a formula
    goes: its derivation is discarded by the packing pass as by
    enumeration, and the trace names why."""
    within = f"within | ((S\\T)/UNIT)/NUM | 0.0 | lam n. lam u. lam p. {template}\n"
    lex = load_lexicon(format_lexicon(lexicon) + within)
    sentence = "Reach B within 10 seconds."
    got, reports = analyze(sentence, lex)
    assert got == enumerated(sentence, lex) == translate(sentence, lex)
    assert (got.n_derivations, got.discarded_count) == (2, 1)
    assert got.formulas() == ["F[0,10] phi_b"]
    assert [r.error for r in reports] == [None, reason]


def test_translate_deterministic_output(lexicon, corpus):
    for sentence in corpus.values():
        first = translate(sentence, lexicon).to_dict()
        second = translate(sentence, lexicon).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


_B_C = str.maketrans("BCbc", "CBcb")


def _swap_b_and_c(text: str) -> str:
    """``text`` with regions B and C swapped, as words of a sentence or as
    atoms of a formula's rendering."""
    return re.sub(r"(?:\b|(?<=phi_))[BCbc]\b", lambda m: m[0].translate(_B_C), text)


def test_swapping_regions_b_and_c_renames_the_candidate_set(lexicon, corpus):
    """Metamorphic relation: swapping B and C in a sentence swaps phi_b and
    phi_c in its readings.  Renamed and put in canonical form, each
    candidate is one of the swapped sentence's, with a bit-equal
    probability and the same support count.  The sets are compared as
    maps, as the order among exact ties follows the renderings."""
    sentences = list(corpus.values()) + [kstep_sentence(k) for k in range(2, 9)]
    sentences += [guarded_sentence(k, joiner) for joiner in ("and then", "or") for k in range(2, 6)]
    for sentence in sentences:
        renamed = {
            format_formula(canonicalize(parse_formula(_swap_b_and_c(cand.text)))):
                (repr(cand.probability), cand.support_count)
            for cand in translate(sentence, lexicon).candidates
        }
        swapped = translate(_swap_b_and_c(sentence), lexicon)
        assert renamed == {
            cand.text: (repr(cand.probability), cand.support_count) for cand in swapped.candidates
        }, sentence
