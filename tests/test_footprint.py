"""What a call leaves behind in the process: the modules it loads and the
garbage only the cyclic collector can free."""

import gc
import textwrap

import ambistl
import ambistl.pipeline as pipeline
import ambistl.semantics as semantics
import ambistl.stl as stl
from ambistl import analyze, evaluate_candidates, translate

from conftest import guarded_sentence, kstep_sentence, run_python

# Run in a fresh interpreter, so that no earlier import has loaded numpy.
COLD_PATH = textwrap.dedent(
    """
    import contextlib, io, sys

    import ambistl
    from ambistl import cli

    lexicon = ambistl.load_default_lexicon()
    with open("demos/data/regions.txt", encoding="utf-8") as handle:
        ambistl.load_regions(handle)
    ambistl.translate("Reach B within 10 seconds.")
    ambistl.translate("Within 10 seconds, reach B or reach C while avoiding A.", lexicon)
    ambistl.analyze("Reach B within 10 seconds and then reach C within 15 seconds.")
    for argv in (
        ["translate", "Reach B within 10 seconds."],
        ["corpus", "--expect", "src/ambistl/data/expectations.tsv"],
        ["explain", "Reach B within 10 seconds while avoiding A."],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, "the translate path loaded numpy"
    assert "dataclasses" not in sys.modules, "the translate path loaded dataclasses"

    ambistl.load_trajectory
    assert "numpy" in sys.modules, "load_trajectory did not load numpy"
    for name in ambistl.__all__:
        getattr(ambistl, name)
    assert set(ambistl.__all__) <= set(dir(ambistl))
    namespace = {}
    exec("from ambistl import *", namespace)
    assert set(ambistl.__all__) <= set(namespace)
    print("ok")
    """
)


def test_translate_path_does_not_load_numpy():
    done = run_python(["-c", COLD_PATH])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"ok\n"


def test_translate_path_calls_neither_reducer_nor_converter(lexicon, corpus, monkeypatch):
    """Once the entries a sentence uses are compiled, translating it again
    composes compiled values only: no beta reduction, no term conversion,
    and no canonicalizing walk, since formulas are built canonical."""
    sentences = list(corpus.values()) + [kstep_sentence(k) for k in range(2, 7)]
    sentences += [guarded_sentence(k, joiner) for joiner in ("and then", "or") for k in range(2, 7)]
    first = [translate(sentence, lexicon) for sentence in sentences]

    def forbidden(*args):
        raise AssertionError("the translate path reduced, converted or canonicalized a term")

    monkeypatch.setattr(semantics, "beta_reduce", forbidden)
    monkeypatch.setattr(pipeline, "beta_reduce", forbidden)
    monkeypatch.setattr(pipeline, "to_stl", forbidden)
    monkeypatch.setattr(stl, "_fold", forbidden)
    assert [translate(sentence, lexicon) for sentence in sentences] == first


def test_calls_leave_no_cyclic_garbage(lexicon, demo_regions, through_a_trajectory):
    sentences = [kstep_sentence(k) for k in range(2, 7)]
    guarded = "Within 10 seconds, reach B or reach C while avoiding A."
    candidate_set = translate(guarded, lexicon)
    analyze(sentences[0], lexicon)
    gc.collect()
    gc.disable()
    try:
        for sentence in sentences:
            translate(sentence, lexicon)
            analyze(sentence, lexicon)
        translate(sentences[0])
        evaluate_candidates(candidate_set, through_a_trajectory, demo_regions)
        assert gc.collect() == 0
    finally:
        gc.enable()
