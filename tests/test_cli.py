import json
import os
import sys

import pytest

from ambistl.cli import _read_corpus, _read_expectations, main
from ambistl.lexicon import format_lexicon, load_default_lexicon, load_lexicon
from ambistl.regions import load_regions
from ambistl.trajectory import load_trajectory

from conftest import CUSTOM_ENTRIES, kstep_sentence, run_python

REGIONS_TEXT = "a: 2 0 4 2\nb: 6 0 8 2\nc: 6 6 8 8\nd: 0 6 2 8\n"
THROUGH_A_CSV = "t,x,y\n" + "\n".join(f"{t},{0.8 * t},1.0" for t in range(11)) + "\n"


@pytest.fixture
def regions_file(tmp_path):
    path = tmp_path / "regions.txt"
    path.write_text(REGIONS_TEXT)
    return str(path)


@pytest.fixture
def trajectory_file(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text(THROUGH_A_CSV)
    return str(path)


# --- translate -----------------------------------------------------------------

def test_translate_simple(capsys):
    assert main(["translate", "Reach B within 10 seconds."]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "1  1.000000  F[0,10] phi_b"


def test_translate_reads_a_sequence_head_in_canonical_form(capsys):
    """The head ``F b & F b`` is ``F b`` in canonical form, so it takes the tail."""
    sentence = "Reach B while reach B within 10 seconds and then reach C within 5 seconds."
    assert main(["translate", sentence]) == 0
    assert capsys.readouterr().out == "1  1.000000  F[0,10](F[0,5] phi_c & phi_b)\n"


def test_translate_empty_sentence_is_usage_error(capsys):
    assert main(["translate", ""]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_translate_coverage_failure(capsys):
    assert main(["translate", "zebra the moon"]) == 2
    assert capsys.readouterr().err == (
        "translation failed: no lexical entry covers token 'zebra' at position 0\n"
    )


def test_translate_superscript_digit_is_a_coverage_gap(capsys):
    """'²' is a digit to str.isdigit but not to int()."""
    assert main(["translate", "reach b within ² seconds"]) == 2
    assert "'²'" in capsys.readouterr().err


SUMMED_BOUNDS = "Reach B within {0} seconds and then reach C within {0} seconds while avoiding A."


@pytest.mark.parametrize(
    "sentence",
    ["Reach B within " + "9" * 5000 + " seconds.", SUMMED_BOUNDS.format("9" * 4300)],
    ids=["5000", "4300x2"],
)
def test_translate_overlong_numeral_is_a_coverage_gap(capsys, sentence):
    """A bound too long to be a numeral exits 2, not as an input error; the
    message quotes the token's first 40 characters and gives its length."""
    assert main(["translate", sentence]) == 2
    err = capsys.readouterr().err
    assert "no lexical entry covers token" in err and "input error" not in err
    digits = len(sentence.split()[3])
    assert f" token '{'9' * 40}...' ({digits} characters) at position 3\n" in err
    assert len(err) < 200


def test_translate_longest_numerals_exit_0(capsys):
    assert main(["translate", SUMMED_BOUNDS.format("9" * 4000)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_translate_json_schema(capsys):
    assert main(["translate", "--format", "json",
                 "Within 10 seconds, reach B or reach C while avoiding A."]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_derivations"] >= 2
    assert len(payload["candidates"]) == 2
    assert {"formula", "score", "probability", "support_count"} == set(payload["candidates"][0])


def test_translate_json_byte_stable(capsys):
    argv = ["translate", "--format", "json",
            "Reach B within 10 seconds or reach C within 15 seconds while avoiding A."]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_nbest_flag(capsys):
    # --n-best caps only the derivations explain lists; the totals stay exact
    assert main(["explain", "--n-best", "1", kstep_sentence(3)]) == 0
    out = capsys.readouterr().out
    assert "5 derivation(s), 0 discarded, 3 candidate(s)" in out
    assert "listing the 1 best of 5 derivations" in out
    assert out.count("  derivation ") == 1 and out.count("candidate ") == 3


def test_nbest_must_be_positive(capsys):
    assert main(["explain", "--n-best", "0", "Reach B within 10 seconds."]) == 1
    assert "usage" in capsys.readouterr().err.lower()
    for command in ("translate", "corpus"):
        assert main([command, "--n-best", "5", "Reach B within 10 seconds."]) == 1


@pytest.mark.parametrize("k", [6, 7])
def test_translate_returns_every_reading_of_long_sentences(capsys, k):
    assert main(["translate", kstep_sentence(k)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == k and captured.err == ""


def test_no_truncation_warning_when_nothing_is_cut(capsys, regions_file, trajectory_file):
    assert main(["translate", "--format", "json", kstep_sentence(6)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["n_derivations"] == 132 and captured.err == ""
    assert main([
        "eval", kstep_sentence(5), "--regions", regions_file, "--trajectory", trajectory_file,
    ]) == 0
    captured = capsys.readouterr()
    assert "horizon-exceeded" in captured.out and captured.err == ""


def test_custom_lexicon_flag(tmp_path, capsys):
    path = tmp_path / "lex.txt"
    path.write_text(format_lexicon(load_default_lexicon()))
    assert main(["translate", "--lexicon", str(path), "Reach B within 10 seconds."]) == 0
    assert "F[0,10] phi_b" in capsys.readouterr().out


def test_template_without_normal_form_exits_2(tmp_path, capsys):
    path = tmp_path / "lex.txt"
    path.write_text(
        format_lexicon(load_default_lexicon()) + "zz | NP | 0.0 | (lam x. x(x))(lam x. x(x))\n"
    )
    assert main(["translate", "--lexicon", str(path), "reach zz within 10 seconds"]) == 2
    assert "no normal form" in capsys.readouterr().err


def test_composition_without_normal_form_exits_2(tmp_path, capsys):
    """Each template has a normal form; applying one to the other has none."""
    path = tmp_path / "lex.txt"
    path.write_text(
        format_lexicon(load_default_lexicon())
        + "yy | T/NP | 0.0 | lam x. x(x)\nzz | NP | 0.0 | lam x. x(x)\n"
    )
    assert main(["translate", "--lexicon", str(path), "yy zz within 10 seconds"]) == 2
    assert "no normal form" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["translate", "explain"])
def test_nested_self_application_exits_2(tmp_path, capsys, command):
    """A self-application under a constructor nests past the recursion
    limit: no normal form, not a traceback."""
    path = tmp_path / "lex.txt"
    path.write_text(
        format_lexicon(load_default_lexicon())
        + "yy | T/NP | 0.0 | lam x. AND(x(x), phi_a)\nzz | NP | 0.0 | lam x. AND(x(x), phi_a)\n"
    )
    assert main([command, "--lexicon", str(path), "yy zz within 10 seconds"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "translation failed: no normal form within the recursion limit (ill-typed template?)\n"
    )


@pytest.mark.parametrize("weight", [800.0, -800.0])
def test_scores_outside_float_range_exit_2(tmp_path, capsys, weight):
    path = tmp_path / "lex.txt"
    text = format_lexicon(load_default_lexicon())
    path.write_text(text.replace("seconds | UNIT | 0.0", f"seconds | UNIT | {weight}"))
    assert main(["translate", "--lexicon", str(path), "Reach B within 10 seconds."]) == 2
    assert "outside the float range" in capsys.readouterr().err


def test_lexicon_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "lex.txt"
    # a lexicon where b maps to a differently named proposition
    text = format_lexicon(load_default_lexicon()).replace("phi_b", "phi_goal")
    path.write_text(text)
    monkeypatch.setenv("AMBISTL_LEXICON", str(path))
    assert main(["translate", "Reach B within 10 seconds."]) == 0
    assert "phi_goal" in capsys.readouterr().out


def test_missing_lexicon_file_is_io_error(capsys):
    assert main(["translate", "--lexicon", "/nonexistent/lex.txt", "Reach B."]) == 3


# --- corpus ----------------------------------------------------------------------

def test_corpus_bundled_gate(capsys):
    from importlib import resources

    expect = resources.files("ambistl.data").joinpath("expectations.tsv")
    assert main(["corpus", "--expect", str(expect)]) == 0
    out = capsys.readouterr().out
    counts = [int(line.split()[1]) for line in out.splitlines() if line.startswith("S")]
    assert counts == [1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 5]
    assert "all 12 sentences match" in out


def test_corpus_without_expectations(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert len([line for line in out.splitlines() if line.startswith("S")]) == 12


def test_corpus_mismatch_names_sentence(tmp_path, capsys):
    from importlib import resources

    text = resources.files("ambistl.data").joinpath("expectations.tsv").read_text()
    edited = tmp_path / "expect.tsv"
    edited.write_text(text.replace("S8\t2", "S8\t3"))
    assert main(["corpus", "--expect", str(edited)]) == 4
    assert "S8" in capsys.readouterr().err


def test_corpus_names_the_sentence_that_fails_to_translate(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("S1\tReach B within 10 seconds.\nS2\tzebra the moon")
    assert main(["corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("S2 (line 2): translation failed: no lexical entry covers token 'zebra'")


def test_corpus_gate_notices_a_dropped_sentence(tmp_path, capsys):
    from importlib import resources

    text = resources.files("ambistl.data").joinpath("corpus.tsv").read_text()
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("".join(l for l in text.splitlines(True) if not l.startswith("S12\t")))
    expect = resources.files("ambistl.data").joinpath("expectations.tsv")
    assert main(["corpus", str(corpus), "--expect", str(expect)]) == 4
    captured = capsys.readouterr()
    assert "MISMATCH S12: expected, but not in the corpus" in captured.err
    assert "match expectations" not in captured.out


def test_corpus_breaks_lines_as_a_file_does(tmp_path, capsys):
    """A U+2028 inside a sentence is whitespace, not a line break."""
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("S1\tReach B\u2028within 10 seconds.\n", encoding="utf-8")
    assert main(["corpus", str(corpus)]) == 0
    assert capsys.readouterr().out == "S1  1  F[0,10] phi_b\n"


def test_corpus_expectations_break_lines_as_a_file_does(tmp_path, capsys):
    """A NEL in a comment and a form feed beside a field are whitespace, not line breaks."""
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("S1\tReach B within 10 seconds.\n", encoding="utf-8")
    expect = tmp_path / "expect.tsv"
    expect.write_text("# one\x85 sentence\nS1\x0c\t1\tF[0,10] phi_b\n", encoding="utf-8")
    assert main(["corpus", str(corpus), "--expect", str(expect)]) == 0
    assert "all 1 sentences match expectations" in capsys.readouterr().out


@pytest.mark.parametrize("lines", [
    ["S1\t1\tF[0,99] phi_z", "S1\t1\tF[0,10] phi_b"],
    ["S1\t1\tF[0,10] phi_b", "S1\t1\tF[0,99] phi_z"],
], ids=["contradiction-first", "contradiction-last"])
def test_corpus_gate_rejects_a_repeated_id(tmp_path, capsys, lines):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("S1\tReach B within 10 seconds.\n")
    expect = tmp_path / "expect.tsv"
    expect.write_text("\n".join(lines) + "\n")
    assert main(["corpus", str(corpus), "--expect", str(expect)]) == 3
    captured = capsys.readouterr()
    assert "expectations line 2: duplicate id 'S1'" in captured.err
    assert "match expectations" not in captured.out


@pytest.mark.parametrize("count", ["x", "-1", "1.0"])
def test_corpus_gate_names_the_line_of_a_bad_count(tmp_path, capsys, count):
    expect = tmp_path / "expect.tsv"
    expect.write_text(f"# header\nS1\t{count}\tF[0,10] phi_b\n")
    assert main(["corpus", "--expect", str(expect)]) == 3
    assert f"expectations line 2: count '{count}' is not a non-negative integer" in (
        capsys.readouterr().err
    )


def test_corpus_missing_file_is_io_error(capsys):
    assert main(["corpus", "/nonexistent/corpus.tsv"]) == 3


def test_corpus_custom_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("X1\tReach B within 10 seconds.\n")
    assert main(["corpus", str(corpus)]) == 0
    assert "X1  1  F[0,10] phi_b" in capsys.readouterr().out


def test_corpus_json_output(capsys):
    assert main(["corpus", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 12
    assert payload[0]["id"] == "S1"


def test_corpus_json_with_expectations_keeps_stdout_json(capsys):
    """With --expect, the JSON document is all of stdout; the summary line
    goes to stderr."""
    from importlib import resources

    expect = resources.files("ambistl.data").joinpath("expectations.tsv")
    assert main(["corpus", "--format", "json", "--expect", str(expect)]) == 0
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)) == 12
    assert captured.err == "all 12 sentences match expectations\n"


# --- readers ---------------------------------------------------------------------

def _opened(load):
    """``load`` of the file at a path, opened as ``eval`` opens a trajectory."""
    def read(path):
        with open(path, encoding="utf-8", newline="") as handle:
            return load(handle)
    return read


def _states(path):
    return _opened(load_trajectory)(path).states.tolist()


BOM_READERS = {
    "lexicon": (_opened(load_lexicon), format_lexicon(load_default_lexicon())),
    "regions": (_opened(load_regions), REGIONS_TEXT),
    "trajectory": (_states, THROUGH_A_CSV),
    "trajectory-rows": (_states, THROUGH_A_CSV.replace("\n", "\r\n")),  # the CSV row loop
    "corpus": (_read_corpus, "S1\tReach B within 10 seconds.\n"),
    "expectations": (_read_expectations, "S1\t1\tF[0,10] phi_b\n"),
}


@pytest.mark.parametrize("reader", BOM_READERS)
def test_readers_drop_a_leading_byte_order_mark(tmp_path, reader):
    """A UTF-8 file that starts with a byte-order mark, as spreadsheet
    "CSV UTF-8" exports do, reads as the same file without it."""
    read, text = BOM_READERS[reader]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8", newline="")
    marked.write_text("\ufeff" + text, encoding="utf-8", newline="")
    assert read(str(marked)) == read(str(plain))


# --- eval ------------------------------------------------------------------------

def test_eval_discriminating_trajectory(capsys, regions_file, trajectory_file):
    assert main([
        "eval", "Within 10 seconds, reach B or reach C while avoiding A.",
        "--regions", regions_file, "--trajectory", trajectory_file,
    ]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines()[1:] if line.strip()]
    assert len(rows) == 2
    flags = [row.split()[3] for row in rows]
    assert sorted(flags) == ["no", "yes"]


def test_eval_short_trajectory_marks_rows(tmp_path, capsys, regions_file):
    short = tmp_path / "short.csv"
    short.write_text("t,x,y\n0,0,0\n1,1,1\n2,2,2\n")
    assert main([
        "eval", "Reach B within 10 seconds.",
        "--regions", regions_file, "--trajectory", str(short),
    ]) == 0
    assert "horizon-exceeded" in capsys.readouterr().out


def test_eval_unknown_region_exits_2(tmp_path, capsys, trajectory_file):
    partial = tmp_path / "partial.txt"
    partial.write_text("a: 2 0 4 2\n")  # no region for b
    assert main([
        "eval", "Reach B within 10 seconds.",
        "--regions", str(partial), "--trajectory", trajectory_file,
    ]) == 2
    assert "b" in capsys.readouterr().err


def test_eval_missing_files_exit_3(capsys, regions_file, trajectory_file):
    assert main([
        "eval", "Reach B within 10 seconds.",
        "--regions", "/nonexistent/r.txt", "--trajectory", trajectory_file,
    ]) == 3
    assert main([
        "eval", "Reach B within 10 seconds.",
        "--regions", regions_file, "--trajectory", "/nonexistent/t.csv",
    ]) == 3


def test_eval_malformed_regions_exit_3(tmp_path, capsys, trajectory_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("a: 4 0 2 2\n")
    assert main([
        "eval", "Reach B within 10 seconds.",
        "--regions", str(bad), "--trajectory", trajectory_file,
    ]) == 3


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_eval_non_finite_regions_exit_3(tmp_path, capsys, trajectory_file, bad):
    path = tmp_path / "regions.txt"
    path.write_text(f"b: 6 0 8 2\nc: 0 6 {bad} 8\n")
    assert main([
        "eval", "Reach B within 10 seconds.",
        "--regions", str(path), "--trajectory", trajectory_file,
    ]) == 3
    assert "line 2: non-finite coordinate" in capsys.readouterr().err


def test_eval_unclosed_quote_exit_3(tmp_path, capsys, regions_file):
    path = tmp_path / "unclosed.csv"
    path.write_text('t,x,y\n0,1,2\n1,"' + "1,2\n" * 40_000)
    assert main([
        "eval", "Reach B within 10 seconds.",
        "--regions", regions_file, "--trajectory", str(path),
    ]) == 3
    assert "input error: malformed CSV" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("t", [0, 1])
def test_eval_non_finite_trajectory_exit_3(tmp_path, capsys, regions_file, t, bad):
    rows = THROUGH_A_CSV.splitlines()
    rows[t + 1] = f"{t},{bad},1.0"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main([
        "eval", "Reach B within 10 seconds.",
        "--regions", regions_file, "--trajectory", str(path),
    ]) == 3
    assert f"row {t + 2}: non-finite" in capsys.readouterr().err


def test_eval_json_output(capsys, regions_file, trajectory_file):
    assert main([
        "eval", "--format", "json", "Reach B within 10 seconds.",
        "--regions", regions_file, "--trajectory", trajectory_file,
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidates"][0]["satisfied"] is True


# --- explain ---------------------------------------------------------------------

def test_explain_groups_by_candidate(capsys):
    assert main(["explain", "Within 10 seconds, reach B or reach C while avoiding A."]) == 0
    out = capsys.readouterr().out
    assert out.count("candidate ") == 2
    assert "discarded" in out
    assert "<ba>" in out and "'while'" in out
    assert "meaning:" in out


def test_explain_single_derivation(capsys):
    assert main(["explain", "Reach B within 10 seconds."]) == 0
    out = capsys.readouterr().out
    assert out.count("candidate ") == 1
    assert "1 derivation(s), 0 discarded, 1 candidate(s)" in out


def test_explain_lists_discarded_derivations(tmp_path, capsys):
    """A derivation whose meaning does not convert is listed apart, with
    its meaning and the reason it was discarded."""
    path = tmp_path / "lex.txt"
    path.write_text(format_lexicon(load_default_lexicon()) + CUSTOM_ENTRIES["apply-converted"])
    sentence = "Reach B within 10 seconds while reach C within 15 seconds."
    assert main(["explain", "--lexicon", str(path), sentence]) == 0
    out = capsys.readouterr().out
    assert "2 derivation(s), 1 discarded, 1 candidate(s)" in out
    assert "meaning: AND(F(I(0, 10), phi_b), F(I(0, 15), phi_c))" in out
    assert "discarded (1):" in out
    assert "ill-formed: residual App in meaning: F[0,10] phi_b applied to [0,5]" in out


def test_explain_lists_derivations_when_every_one_is_discarded(capsys):
    """With no derivation left, explain still lists each one and why it was
    discarded, then fails as translate does."""
    sentence = "Avoid A within 10 seconds and then reach B within 5 seconds."
    assert main(["explain", sentence]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"sentence: {sentence}",
        "1 derivation(s), 1 discarded, 0 candidate(s)",
        "",
        "discarded (1):",
        "  derivation 0  score=0.0000  ill-formed: sequence head is not an eventually task",
    ]
    assert captured.err == "translation failed: all 1 derivations were discarded as ill-formed\n"


def test_explain_no_parse_exits_2(capsys):
    assert main(["explain", "b within 10 seconds"]) == 2


def test_explain_says_when_derivations_were_cut(capsys):
    assert main(["explain", kstep_sentence(6)]) == 0
    out = capsys.readouterr().out
    assert "132 derivation(s), 0 discarded, 6 candidate(s)" in out
    assert "listing the 40 best of 132 derivations" in out
    assert out.count("  derivation ") == 40
    assert main(["explain", "--n-best", "200", kstep_sentence(6)]) == 0
    out = capsys.readouterr().out
    assert "132 derivation(s), 0 discarded" in out and "listing" not in out
    assert out.count("  derivation ") == 132
    assert main(["explain", "--n-best", "5", kstep_sentence(9)]) == 0
    out = capsys.readouterr().out
    assert "listing the 5 best of 4862 derivations" in out
    assert out.count("  derivation ") == 5


def test_explain_has_no_format_flag(capsys):
    assert main(["explain", "--format", "json", "Reach B within 10 seconds."]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage" in captured.err.lower()


def test_explain_listing_is_independent_of_the_hash_seed():
    """Tied derivations keep chart order, so a cut listing is the same
    whatever order Python's string hashing gives sets."""
    outputs = []
    for seed in ("0", "1"):
        done = run_python(
            ["-m", "ambistl.cli", "explain", "--n-best", "10", kstep_sentence(5)],
            PYTHONHASHSEED=seed,
        )
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    assert b"listing the 10 best of 42 derivations" in outputs[0]
    assert outputs[0] == outputs[1]


def test_corpus_sentences_are_not_reported_as_cut(capsys, corpus, regions_file, trajectory_file):
    for sentence in corpus.values():
        assert main(["explain", sentence]) == 0
        assert "listing" not in capsys.readouterr().out
        assert main([
            "eval", "--format", "json", sentence,
            "--regions", regions_file, "--trajectory", trajectory_file,
        ]) == 0
        captured = capsys.readouterr()
        assert set(json.loads(captured.out)) == {"sentence", "candidates"}
        assert captured.err == ""


@pytest.mark.parametrize("command", ["translate", "eval", "explain"])
def test_sentence_without_a_reading_is_no_parse(capsys, command, regions_file, trajectory_file):
    # a bound over an already bounded task: no derivation reaches a root
    # category, so the parser rejects it before composition
    argv = [command, "Within 20 seconds, reach B within 10 seconds while avoiding A."]
    if command == "eval":
        argv += ["--regions", regions_file, "--trajectory", trajectory_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no complete parse" in captured.err


def test_a_closed_stdout_exits_141_with_nothing_on_stderr(capsys, monkeypatch):
    """A reader that closes stdout early (``explain ... | head -1``) is no
    I/O error: stdout's write raises BrokenPipeError, ``main`` exits 141
    and points stdout at the null device, so a later flush succeeds."""
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        assert main(["explain", kstep_sentence(5)]) == 141
        print("more")
        stdout.flush()
    assert capsys.readouterr() == ("", "")


def test_a_closed_stdout_is_quiet_up_to_the_interpreter_exit():
    """Also when the output fits stdout's buffer, so the pipe fails only
    when the buffer is flushed (stdout is buffered, as it is by default),
    and when the command fails after writing."""
    script = (
        "import os, sys; read, write = os.pipe(); os.close(read); os.dup2(write, 1); "
        "from ambistl.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    for argv in (
        ["explain", kstep_sentence(5)],
        ["translate", "Reach B within 10 seconds."],
        ["explain", "Avoid A within 10 seconds and then reach B within 5 seconds."],
    ):
        done = run_python(["-c", script, *argv], PYTHONUNBUFFERED="")
        assert (done.returncode, done.stderr) == (141, b"")
