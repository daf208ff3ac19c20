import sys

import pytest

from ambistl.lexicon import format_category, load_default_lexicon
from ambistl.parser import parse_nbest, tokenize
from ambistl.pipeline import compose
from ambistl.stl import Atom, F, Formula, Interval
from ambistl.semantics import (
    App,
    Con,
    IntC,
    Lam,
    ReductionBudgetError,
    TemplateSyntaxError,
    Var,
    beta_reduce,
    format_term,
    free_vars,
    parse_term,
    substitute,
)

from reduction_oracle import alpha_equal, reduce_small_step

I_0_10 = Con("I", (IntC(0), IntC(10)))
I_0_15 = Con("I", (IntC(0), IntC(15)))


def test_identity_application():
    term = App(Lam("x", Var("x")), Atom("a"))
    assert beta_reduce(term) == Atom("a")


def test_interval_application_example():
    # lam p. p(I(0,10)) applied to lam i. F(i, phi_b)
    within = parse_term("lam p. p(I(0, 10))")
    reach = parse_term("lam i. F(i, phi_b)")
    assert beta_reduce(App(within, reach)) == Con("F", (I_0_10, Atom("b")))


def test_two_argument_template_order():
    # lam q. lam p. AND(p, q): the second argument lands on the left
    conj = parse_term("lam q. lam p. AND(p, q)")
    m1, m2 = Atom("x1"), Atom("x2")
    assert beta_reduce(App(App(conj, m1), m2)) == Con("AND", (m2, m1))


def test_constructor_headed_application_is_stuck():
    stuck = App(Con("F", (I_0_10, Atom("b"))), I_0_15)
    assert beta_reduce(stuck) == stuck


def test_capture_avoiding_substitution():
    # (lam x. lam y. x) y  must not capture the free y
    term = App(Lam("x", Lam("y", Var("x"))), Var("y"))
    reduced = beta_reduce(term)
    assert isinstance(reduced, Lam)
    assert reduced.body == Var("y")
    assert reduced.var != "y"
    assert alpha_equal(reduced, Lam("z", Var("y")))


def test_fresh_names_do_not_depend_on_earlier_calls():
    term = App(Lam("x", Lam("y", App(Var("x"), Var("y")))), Var("y"))
    first = format_term(beta_reduce(term))
    assert first == "lam y_0. y(y_0)"
    assert format_term(beta_reduce(term)) == first


def test_substitute_leaves_bound_occurrences_alone():
    term = Lam("x", App(Var("x"), Var("y")))
    result = substitute(term, "y", Atom("a"))
    assert result == Lam("x", App(Var("x"), Atom("a")))
    assert substitute(term, "x", Atom("a")) == term


def test_substitute_returns_the_term_when_the_variable_is_not_free():
    terms = [
        Atom("a"),
        IntC(3),
        Var("z"),
        Lam("x", App(Var("x"), Var("z"))),  # x bound
        Lam("y", Con("AND", (Var("y"), Atom("a")))),  # y would capture the replacement
        App(Lam("y", Var("y")), Con("I", (IntC(0), IntC(10)))),
        parse_term("lam q. lam p. SEQ(p, q)"),
    ]
    for term in terms:
        assert "x" not in free_vars(term)
        assert substitute(term, "x", Var("y")) is term, format_term(term)


def test_substitute_shares_the_subterms_it_leaves_alone():
    kept = Con("F", (I_0_10, Atom("b")))
    result = substitute(Con("AND", (Var("x"), kept)), "x", Atom("a"))
    assert result == Con("AND", (Atom("a"), kept))
    assert result.args[1] is kept


def test_normal_forms_reduce_to_themselves(lex):
    """Every bundled template is in normal form, and reduction returns it
    as the same object; a reduct keeps the pieces no contraction touched."""
    for entry in lex.all_entries():
        assert beta_reduce(entry.template) is entry.template, format_term(entry.template)
    stuck = App(Con("F", (I_0_10, Atom("b"))), I_0_15)
    assert beta_reduce(stuck) is stuck
    kept = Con("G", (I_0_15, Atom("a")))
    reduct = beta_reduce(Con("AND", (App(Lam("x", Var("x")), Atom("b")), kept)))
    assert reduct == Con("AND", (Atom("b"), kept)) and reduct.args[1] is kept


def test_free_vars():
    term = Lam("p", App(Var("p"), Var("q")))
    assert free_vars(term) == {"q"}


def test_reduction_budget():
    omega = Lam("x", App(Var("x"), Var("x")))
    with pytest.raises(ReductionBudgetError):
        beta_reduce(App(omega, omega))


def test_alpha_equal_distinguishes_structure():
    assert alpha_equal(Lam("a", Var("a")), Lam("b", Var("b")))
    assert not alpha_equal(Lam("a", Var("a")), Lam("a", Atom("a")))
    assert not alpha_equal(Atom("a"), Atom("b"))
    assert not alpha_equal(parse_term("F(I(0, 1), phi_a)"), parse_term("G(I(0, 1), phi_a)"))
    assert alpha_equal(parse_term("lam i. F(i, phi_a)"), parse_term("lam j. F(j, phi_a)"))


# --- template mini-language ---------------------------------------------------

def test_parse_term_round_trip():
    texts = [
        "lam x. lam i. F(i, x)",
        "lam q. lam p. SEQ(p, q)",
        "lam q. lam p. lam i. AND(p(i), q(i))",
        "lam q. lam p. AND(p, EXTG(q, p))",
        "lam n. lam u. lam p. p(I(0, n))",
        "phi_b",
        "42",
        "NOT(phi_a)",
    ]
    for text in texts:
        term = parse_term(text)
        assert parse_term(format_term(term)) == term


def _nodes(term):
    yield term
    if isinstance(term, Lam):
        yield from _nodes(term.body)
    elif isinstance(term, App):
        yield from _nodes(term.fn)
        yield from _nodes(term.arg)
    elif isinstance(term, Con):
        for arg in term.args:
            yield from _nodes(arg)


# A converted meaning, as the packing pass hands it to a mother's template.
LIT_B = F(Interval(0, 10), Atom("b"))


def test_lit_is_rendered_but_never_parsed(lex):
    """A formula constant renders as its formula; only atoms parse back."""
    assert format_term(LIT_B) == "F[0,10] phi_b"
    applied = App(parse_term("lam x. NOT(x)"), LIT_B)
    assert format_term(applied) == "(lam x. NOT(x))(F[0,10] phi_b)"
    for text in (format_term(LIT_B), format_term(applied)):
        with pytest.raises(TemplateSyntaxError):
            parse_term(text)
    assert parse_term("phi_b") == Atom("b") and format_term(Atom("b")) == "phi_b"
    templates = [entry.template for entry in lex.all_entries()]
    constants = [node for t in templates for node in _nodes(t) if isinstance(node, Formula)]
    assert constants and all(type(node) is Atom for node in constants)


def test_lit_is_a_closed_constant():
    """A formula inside a term is a closed constant, as an atom is."""
    for constant in (LIT_B, Atom("b")):
        assert free_vars(constant) == set()
        assert substitute(constant, "x", Var("y")) is constant
        doubled = beta_reduce(App(parse_term("lam x. AND(x, x)"), constant))
        assert doubled == Con("AND", (constant, constant))
        stuck = App(constant, I_0_10)  # a converted meaning applied as a function
        assert beta_reduce(stuck) == stuck


def test_parse_term_errors():
    for text in ["", "lam . x", "F(phi_a)", "AND(phi_a)", "phi_", "F[0,10]", "f(a,)"]:
        with pytest.raises(TemplateSyntaxError):
            parse_term(text)


def test_parse_term_reads_only_decimal_digits():
    """'²' is a digit to str.isdigit but not to int()."""
    with pytest.raises(TemplateSyntaxError):
        parse_term("F(I(0, ²), phi_a)")


def test_parse_term_deep_nesting_is_a_syntax_error():
    depth = 100_000
    with pytest.raises(TemplateSyntaxError, match="nested too deeply"):
        parse_term("(" * depth + "phi_a" + ")" * depth)


def test_curried_application_sugar():
    assert parse_term("f(a, b)") == App(App(Var("f"), Var("a")), Var("b"))
    assert parse_term("f(a)(b)") == parse_term("f(a, b)")


# --- composition over corpus derivations ---------------------------------------

@pytest.fixture(scope="module")
def lex():
    return load_default_lexicon()


def _single_well_formed_meaning(sentence, lex):
    from ambistl.pipeline import IllFormedMeaningError, to_stl

    meanings = []
    for derivation in parse_nbest(tokenize(sentence), lex):
        meaning = compose(derivation)
        try:
            to_stl(meaning)
        except IllFormedMeaningError:
            continue
        meanings.append(meaning)
    return meanings


def test_compose_bounded_reach_with_guard(lex):
    meanings = _single_well_formed_meaning("Within 10 seconds, reach B while avoiding A.", lex)
    expected = parse_term("AND(F(I(0, 10), phi_b), G(I(0, 10), NOT(phi_a)))")
    assert any(m == expected for m in meanings)


def test_compose_sequence(lex):
    meanings = _single_well_formed_meaning(
        "Reach B within 10 seconds and then reach C within 15 seconds.", lex
    )
    assert meanings == [parse_term("SEQ(F(I(0, 10), phi_b), F(I(0, 15), phi_c))")]


def test_compose_avoiding_subtree(lex):
    # an open task is a T, never a root: compose it as a subtree of a sentence
    derivs = parse_nbest(tokenize("Reach B within 10 seconds while avoiding A."), lex)
    assert len(derivs) == 1
    guard = derivs[0].root.right.right
    assert [leaf.entry.surface[0] for leaf in (guard.left, guard.right)] == ["avoiding", "a"]
    assert format_category(guard.category) == "T"
    assert alpha_equal(compose(guard), parse_term("lam i. G(i, NOT(phi_a))"))


def _kstep_sentence(k):
    tasks = " and then ".join(f"reach {'BCD'[i % 3]} within {10 + i} seconds" for i in range(k))
    return f"{tasks[0].upper()}{tasks[1:]} while avoiding A."


def test_compose_terminates_and_agrees_with_small_step_oracle(lex, corpus):
    """The normalizer reaches the same normal form as the small-step
    leftmost-outermost reference on every derivation, well-formed or not,
    of the corpus and of the k-step sentences k=2..6 without truncation."""
    sentences = list(corpus.values()) + [_kstep_sentence(k) for k in range(2, 7)]
    assert len(sentences) == 17
    checked = 0
    for sentence in sentences:
        for derivation in parse_nbest(tokenize(sentence), lex, n=sys.maxsize):
            raw = _raw_term(derivation.root)
            assert alpha_equal(beta_reduce(raw), reduce_small_step(raw))
            checked += 1
    assert checked > 100


def _raw_term(node):
    from ambistl.parser import Leaf

    if isinstance(node, Leaf):
        return node.entry.template
    left, right = _raw_term(node.left), _raw_term(node.right)
    return App(left, right) if node.rule == "fa" else App(right, left)


def test_compose_alpha_invariant_under_template_renaming(lex):
    """Renaming a template's bound variables does not change compositions."""
    from ambistl.lexicon import format_lexicon, load_lexicon

    renamed_text = format_lexicon(lex).replace("lam i.", "lam w.").replace("(i)", "(w)").replace("F(i,", "F(w,").replace("G(i,", "G(w,")
    renamed = load_lexicon(renamed_text)
    sentence = "Within 10 seconds, reach B while avoiding A."
    originals = [compose(d) for d in parse_nbest(tokenize(sentence), lex)]
    variants = [compose(d) for d in parse_nbest(tokenize(sentence), renamed)]
    assert len(originals) == len(variants)
    for left, right in zip(originals, variants):
        assert alpha_equal(left, right)
