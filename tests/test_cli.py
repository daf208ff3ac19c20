import json

import pytest

from ambistl.cli import main
from ambistl.lexicon import format_lexicon, load_default_lexicon

from conftest import kstep_sentence

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


def test_translate_empty_sentence_is_usage_error(capsys):
    assert main(["translate", ""]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_translate_coverage_failure(capsys):
    assert main(["translate", "zebra the moon"]) == 2
    assert "zebra" in capsys.readouterr().err


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
