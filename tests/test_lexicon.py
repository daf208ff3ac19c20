import io
import sys
import threading

import pytest

from ambistl.lexicon import (
    Basic,
    CategorySyntaxError,
    LexiconError,
    LexiconSyntaxError,
    LexiconWarning,
    Slash,
    format_category,
    format_lexicon,
    load_default_lexicon,
    load_lexicon,
    lookup,
    MAX_NUMERAL_DIGITS,
    numeral_entry,
    parse_category,
    validate_lexicon,
)
from ambistl.parser import CoverageError
from ambistl.pipeline import translate
from ambistl.semantics import beta_reduce, App, IntC, parse_term
from ambistl.stl import Atom

from conftest import kstep_sentence
from reduction_oracle import alpha_equal


# --- categories ---------------------------------------------------------------

def test_parse_basic_categories():
    assert parse_category("S") == Basic("S")
    assert parse_category("NP") == Basic("NP")


def test_parse_slash_left_associative():
    assert parse_category("S/NP/NP") == Slash("/", Slash("/", Basic("S"), Basic("NP")), Basic("NP"))


def test_parse_mixed_slashes_with_parens():
    cat = parse_category(r"(S\S)/S")
    assert cat == Slash("/", Slash("\\", Basic("S"), Basic("S")), Basic("S"))
    nested = parse_category(r"((S\S)/UNIT)/NUM")
    assert format_category(nested) == r"((S\S)/UNIT)/NUM"


def test_category_round_trip():
    for text in ["S", "NP", "S/NP", r"S\NP", r"(S\S)/S", r"((S/S)/UNIT)/NUM", r"(NP\NP)/NP"]:
        assert format_category(parse_category(text)) == text


def test_categories_parsed_apart_key_one_entry():
    """Categories are interned: parsing one twice gives the same object."""
    texts = ["S", "NP", r"S\NP", "S/NP", r"(S\S)/S", r"((S/S)/UNIT)/NUM", r"(NP\NP)/NP"]
    table = {}
    for text in texts:
        first, second = parse_category(text), parse_category(text)
        assert first is second
        assert first == second and hash(first) == hash(second)
        table[first] = text
        assert table[second] == text
        table[second] = text + "!"
        assert table[first] == text + "!"
    assert len(table) == len(texts)
    nested = parse_category(r"(S\S)/S")
    assert nested is Slash("/", Slash("\\", Basic("S"), Basic("S")), Basic("S"))
    assert nested.result.result is nested.argument is Basic("S")


def test_threads_building_one_new_category_get_one_object():
    """The intern table is filled with ``dict.setdefault``, so threads that
    build the same new categories at once all get the objects stored."""
    names = [f"FRESH{i}" for i in range(300)]
    start = threading.Barrier(4, timeout=30)
    built = []

    def build():
        start.wait()
        built.append([Slash("/", Basic(name), Slash("\\", Basic(name), Basic("NP"))) for name in names])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 4
    for cats in zip(*built):
        assert all(cat is cats[0] for cat in cats)
        assert cats[0].result is cats[0].argument.result


def test_equal_categories_are_one_object_per_lexicon(lexicon):
    """Entries whose categories read the same share one category object, as
    do equal daughters, and every numeral leaf has the same NUM."""
    by_text = {}
    for entry in lexicon.all_entries():
        by_text.setdefault(format_category(entry.category), []).append(entry.category)
    assert any(len(cats) > 1 for cats in by_text.values())
    for cats in by_text.values():
        assert all(cat is cats[0] for cat in cats)
    text = "reach | T/NP | 0.0 | lam x. lam i. F(i, x)\ngo to | T/NP | -0.5 | lam x. lam i. F(i, x)\n"
    text += "for | ((S\\S)/UNIT)/NUM | 0.0 | lam n. lam u. lam p. p\n"
    small = load_lexicon(text)
    reach, go_to = small.entries[("reach",)][0], small.entries[("go", "to")][0]
    assert reach.category is go_to.category
    within = small.entries[("for",)][0].category
    assert within.argument is numeral_entry("7").category is numeral_entry("10").category
    assert within.result.result.result is within.result.result.argument  # S in S\S


def test_unknown_category_atom():
    with pytest.raises(CategorySyntaxError):
        parse_category("VP/NP")
    with pytest.raises(CategorySyntaxError):
        parse_category("(S/S")
    for text in ("S1", "N_P", "12"):
        with pytest.raises(CategorySyntaxError, match=f"unknown category atom '{text}'"):
            parse_category(text)


# --- loading ------------------------------------------------------------------

def test_load_single_entry():
    lex = load_lexicon("reach | S/NP | 0.0 | lam x. lam i. F(i, x)")
    entries = lex.entries[("reach",)]
    assert len(entries) == 1
    entry = entries[0]
    assert entry.category == Slash("/", Basic("S"), Basic("NP"))
    assert entry.weight == 0.0
    # applying the template to an atom yields the bare reach template
    applied = beta_reduce(App(entry.template, Atom("b")))
    assert alpha_equal(applied, parse_term("lam i. F(i, phi_b)"))


def test_load_multiword_entry():
    lex = load_lexicon(r"and then | (S\S)/S | 0.0 | lam q. lam p. SEQ(p, q)")
    assert ("and", "then") in lex.entries


def test_empty_lexicon_is_an_error():
    with pytest.raises(LexiconError, match="empty lexicon"):
        load_lexicon("")
    with pytest.raises(LexiconError, match="empty lexicon"):
        load_lexicon("# only comments\n\n")


def test_syntax_error_carries_line_number():
    with pytest.raises(LexiconSyntaxError, match="line 2"):
        load_lexicon("a | NP | 0.0 | phi_a\nbroken line without pipes")


def test_malformed_category_and_template_errors():
    with pytest.raises(LexiconSyntaxError, match="category"):
        load_lexicon("a | XP | 0.0 | phi_a")
    with pytest.raises(LexiconSyntaxError, match="template"):
        load_lexicon("a | NP | 0.0 | AND(phi_a)")
    with pytest.raises(LexiconSyntaxError, match="weight"):
        load_lexicon("a | NP | heavy | phi_a")


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_non_finite_weights_rejected(weight):
    with pytest.raises(LexiconSyntaxError, match="weight"):
        load_lexicon(f"a | NP | {weight} | phi_a")
    with pytest.raises(LexiconSyntaxError, match="rule weight"):
        load_lexicon(f"@rule fa {weight}\na | NP | 0.0 | phi_a")


def test_open_template_rejected():
    with pytest.raises(LexiconSyntaxError, match="free variables"):
        load_lexicon("a | NP | 0.0 | lam x. y")


def test_duplicate_identical_entry_warns():
    text = "a | NP | 0.0 | phi_a\na | NP | 0.0 | phi_a"
    with pytest.warns(LexiconWarning):
        lex = load_lexicon(text)
    assert len(lex.entries[("a",)]) == 1


def test_rule_weight_lines():
    lex = load_lexicon("@rule fa -0.25\na | NP | 0.0 | phi_a")
    assert lex.rule_weight("fa") == -0.25
    assert lex.rule_weight("ba") == 0.0
    with pytest.raises(LexiconSyntaxError):
        load_lexicon("@rule fa\na | NP | 0.0 | phi_a")


def test_round_trip_through_writer():
    lex = load_default_lexicon()
    assert load_lexicon(format_lexicon(lex)) == lex


def test_load_lexicon_breaks_lines_as_a_file_does():
    """A form feed, NEL or U+2028 inside a line is whitespace, not a line break."""
    bundled = format_lexicon(load_default_lexicon())
    text = bundled + "# note\u2028 here\nvisit |\x0cT/NP | 0.0 |\x85lam x. lam i. F(i, x)\n"
    expected = load_lexicon(bundled + "visit | T/NP | 0.0 | lam x. lam i. F(i, x)\n")
    for source in (text, io.StringIO(text)):
        assert load_lexicon(source) == expected


# --- lookup -------------------------------------------------------------------

def test_lookup_multiword_longest_first(lexicon):
    tokens = ["reach", "b", "and", "then", "reach", "c"]
    matches = lookup(lexicon, tokens, 2)
    assert matches, "expected the two-token entry"
    spans = [span for span, _ in matches]
    assert spans == sorted(spans, reverse=True)
    assert (2, lexicon.entries[("and", "then")][0]) in matches


def test_lookup_three_token_surface(lexicon):
    """A three-token entry matches before a one-token entry that shares its
    first word, and no span runs past the last word."""
    lex = load_lexicon(
        format_lexicon(lexicon) + "as soon as | NP | 0.0 | phi_s\nas | NP | 0.0 | phi_a\n"
    )
    three, one = lex.entries[("as", "soon", "as")][0], lex.entries[("as",)][0]
    words = ["reach", "as", "soon", "as"]
    assert lookup(lex, words, 1) == [(3, three), (1, one)]
    assert lookup(lex, words[:3], 1) == [(1, one)]
    assert lookup(lex, words, 3) == [(1, one)]


def test_lookup_region_atom(lexicon):
    matches = lookup(lexicon, ["b"], 0)
    assert len(matches) == 1
    span, entry = matches[0]
    assert span == 1 and entry.template == Atom("b")


def test_lookup_numeral_synthesised(lexicon):
    matches = lookup(lexicon, ["10"], 0)
    assert matches == [(1, numeral_entry("10"))]
    assert matches[0][1].template == IntC(10)


def test_lookup_numerals_are_decimal_digits_only(lexicon):
    """'²' is a digit to str.isdigit but not to int(): a coverage gap."""
    assert lookup(lexicon, ["²"], 0) == []
    with pytest.raises(CoverageError):
        translate("reach b within ² seconds", lexicon)


# Python converts integers of more than 4,300 digits to or from text only
# on request, so a longer numeral, or a guard window summing two bounds of
# 4,300 digits, could not be read or rendered.
OVERLONG_BOUND = "Reach B within " + "9" * 5000 + " seconds."
SUMMED_BOUNDS = "Reach B within {0} seconds and then reach C within {0} seconds while avoiding A."


@pytest.mark.parametrize(
    "sentence", [OVERLONG_BOUND, SUMMED_BOUNDS.format("9" * 4300)], ids=["5000", "4300x2"]
)
def test_lookup_overlong_digit_token_is_a_coverage_gap(lexicon, sentence):
    with pytest.raises(CoverageError):
        translate(sentence, lexicon)


def test_lookup_longest_numerals_translate(lexicon):
    """Two bounds of ``MAX_NUMERAL_DIGITS`` digits sum to a renderable window."""
    assert MAX_NUMERAL_DIGITS == 4000
    assert lookup(lexicon, ["9" * 4000], 0) == [(1, numeral_entry("9" * 4000))]
    assert lookup(lexicon, ["9" * 4001], 0) == []
    result = translate(SUMMED_BOUNDS.format("9" * 4000), lexicon)
    assert any(f"G[0,{2 * (10 ** 4000 - 1)}] !phi_a" in text for text in result.formulas())


def test_lookup_out_of_vocabulary(lexicon):
    assert lookup(lexicon, ["zebra"], 0) == []


def test_lookup_position_bounds(lexicon):
    with pytest.raises(IndexError):
        lookup(lexicon, ["b"], 1)


# --- validation ---------------------------------------------------------------

def test_default_lexicon_is_clean(lexicon):
    assert validate_lexicon(lexicon) == []


def test_missing_unit_word_kills_within(lexicon):
    text = "\n".join(
        line for line in format_lexicon(lexicon).splitlines() if not line.startswith("seconds")
    )
    crippled = load_lexicon(text)
    notes = validate_lexicon(crippled)
    assert any("within" in note and "UNIT" in note for note in notes)


@pytest.mark.parametrize(
    "line, lams, arity",
    [
        ("visit | S/NP | 0.0 | lam x. lam i. F(i, x)", 2, 1),
        ("while | (S\\S)/T | 0.0 | lam q. lam p. lam i. AND(p(i), q(i))", 3, 2),
        ("visit | T/NP | 0.0 | lam x. F(I(0, 5), x)", 1, 2),
    ],
    ids=["formula-verb", "sharing-while-as-guard", "task-without-interval"],
)
def test_template_arity_must_fit_category(lexicon, line, lams, arity):
    notes = validate_lexicon(load_lexicon(format_lexicon(lexicon) + line + "\n"))
    surface = line.split(" |")[0]
    assert notes == [
        f"template of '{surface}' ({line.split(' | ')[1]}) takes {lams} argument(s)"
        f" but its category takes {arity}"
    ]


def test_missing_rule_weight_noted(lexicon):
    text = "\n".join(
        line for line in format_lexicon(lexicon).splitlines() if not line.startswith("@rule ba")
    )
    notes = validate_lexicon(load_lexicon(text))
    assert notes == ["rule weight for 'ba' absent; defaulted to 0.0"]


def test_template_without_normal_form_noted(lexicon):
    line = "zz | NP | 0.0 | (lam x. x(x))(lam x. x(x))"
    notes = validate_lexicon(load_lexicon(format_lexicon(lexicon) + line + "\n"))
    assert len(notes) == 1
    assert notes[0].startswith("template of 'zz' (NP) has no normal form: ")


def test_unknown_rule_weight_noted(lexicon):
    notes = validate_lexicon(load_lexicon(format_lexicon(lexicon) + "@rule zz 1.0\n"))
    assert notes == ["rule weight for unknown rule 'zz' is never used"]


def test_default_lexicon_covers_corpus_vocabulary(lexicon, corpus):
    from ambistl.parser import tokenize

    for sentence in corpus.values():
        tokens = tokenize(sentence)
        covered = [False] * len(tokens)
        for i in range(len(tokens)):
            for span, _ in lookup(lexicon, tokens, i):
                for k in range(i, i + span):
                    covered[k] = True
        assert all(covered), f"coverage gap in {sentence!r}"


def test_default_lexicon_core_templates(lexicon):
    """The shipped templates match the documented inventory."""
    def templates(surface):
        return [e.template for e in lexicon.entries[surface]]

    assert any(
        alpha_equal(t, parse_term("lam x. lam i. F(i, x)")) for t in templates(("reach",))
    )
    assert any(
        alpha_equal(t, parse_term("lam x. lam i. G(i, NOT(x))")) for t in templates(("avoid",))
    )
    assert any(
        alpha_equal(t, parse_term("lam q. lam p. OR(p, q)")) for t in templates(("or",))
    )
    assert any(
        alpha_equal(t, parse_term("lam q. lam p. SEQ(p, q)")) for t in templates(("and", "then"))
    )
    while_templates = templates(("while",))
    assert any(
        alpha_equal(t, parse_term("lam q. lam p. lam i. AND(p(i), q(i))")) for t in while_templates
    )
    assert any(
        alpha_equal(t, parse_term("lam q. lam p. AND(p, EXTG(q, p))")) for t in while_templates
    )
    # applying 'within' to a numeral and the unit leaves the bare bound template
    within = templates(("within",))[0]
    applied = beta_reduce(App(App(within, IntC(10)), IntC(1)))
    assert alpha_equal(applied, parse_term("lam p. p(I(0, 10))"))


def test_default_lexicon_builds_no_ill_formed_derivation(lexicon, corpus):
    """The sentence categories keep open tasks out of formula positions, so
    every complete parse converts: nothing is built only to be discarded."""
    from ambistl.pipeline import translate

    for sentence in corpus.values():
        assert translate(sentence, lexicon).discarded_count == 0, sentence
    results = {k: translate(kstep_sentence(k), lexicon) for k in range(2, 6)}
    assert all(result.discarded_count == 0 for result in results.values())
    assert [results[k].n_derivations for k in range(2, 6)] == [2, 5, 14, 42]
    assert sorted(c.support_count for c in results[5].candidates) == [4, 5, 5, 14, 14]
