"""Each value is built once per call: formulas are hash-consed within one
``translate``, ``analyze`` or ``canonical_form`` call, and nothing of it
outlives the call.  The checks count calls and nodes, which do not depend
on machine load."""

import gc

import pytest

import ambistl.pipeline as pipeline
import ambistl.stl as stl
from ambistl import analyze, translate
from ambistl.pipeline import EmptyCandidateSetError
from ambistl.stl import And, Atom, F, Formula, G, Interval, Not, canonical_form

from conftest import guarded_sentence, kstep_sentence

GUARDED_9 = guarded_sentence(9, "and then")
# Uses every atom of the bundled lexicon, and the entries of the sentences below.
WARM_UP = guarded_sentence(3, "and then")


def nodes_of(formula):
    """Every node of ``formula``, once per occurrence."""
    yield formula
    for child in stl._children(formula):
        yield from nodes_of(child)


class Recorder:
    """Counts what one call builds: each node the canonical constructors
    build (its rendering); the (head, tail) pairs of the ``_seq_insert``
    calls, the calls it makes to itself and the nodes built within them;
    and the calls ``extent`` makes to itself."""

    def __init__(self, monkeypatch):
        self.built, self.pairs, self.seq_built, self.extents = [], set(), 0, 0
        self.nested = self._depth = 0
        keep, seq_insert, extent = stl._keep, pipeline._seq_insert, stl.extent

        def counted_keep(node, *args):
            node = keep(node, *args)
            self.built.append(node._canonical)
            return node

        def counted_seq_insert(chi, tail):
            self.pairs.add((chi._canonical, tail._canonical))
            self.nested += self._depth > 0
            before = len(self.built)
            self._depth += 1
            try:
                result = seq_insert(chi, tail)
            finally:
                self._depth -= 1
            if not self._depth:  # an outermost call counts what its recursion built
                self.seq_built += len(self.built) - before
            return result

        def counted_extent(formula):
            self.extents += 1
            return extent(formula)

        monkeypatch.setattr(stl, "_keep", counted_keep)
        monkeypatch.setattr(pipeline, "_seq_insert", counted_seq_insert)
        # ``pipeline`` holds ``extent`` by name, so this counts only the
        # calls ``extent`` makes to itself.
        monkeypatch.setattr(stl, "extent", counted_extent)


def record_translate(sentence, lexicon, monkeypatch):
    # Compile the templates first: a template's formula constants, the
    # atoms, are canonicalized when it is first used.
    translate(WARM_UP, lexicon)
    recorder = Recorder(monkeypatch)
    return recorder, translate(sentence, lexicon)


@pytest.fixture(scope="module")
def guarded_9(lexicon):
    """The record of one translation of the guarded chain at k=9."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield record_translate(GUARDED_9, lexicon, monkeypatch)


@pytest.mark.parametrize(
    "sentence, nodes",
    [(kstep_sentence(6), 79), (kstep_sentence(12), 301), (guarded_sentence(8, "and then"), 9_868)],
    ids=["kstep-6", "kstep-12", "guarded-8"],
)
def test_translate_builds_each_formula_once(lexicon, monkeypatch, sentence, nodes):
    """The constructors build one node per distinct rendering.  Without the
    call's node table they built 304, 4,052 and 55,184 nodes here."""
    recorder, _ = record_translate(sentence, lexicon, monkeypatch)
    assert len(recorder.built) == len(set(recorder.built)) == nodes


def test_guarded_chain_builds_each_formula_once(guarded_9):
    """213,422 nodes were built here without the node table."""
    recorder, candidate_set = guarded_9
    assert len(candidate_set.candidates) == 4_862
    assert len(recorder.built) == len(set(recorder.built)) == 32_682


def test_sequence_insertion_builds_one_node_per_pair(guarded_9):
    """``_seq_insert`` is memoized per call: each distinct (head, tail) pair
    is inserted once, so it recurses at most once per pair and builds at
    most one node at its own level.  Unmemoized, 204,464 calls (183,744 of
    them recursive) rebuilt the spines of 62,160 pairs."""
    recorder, _ = guarded_9
    assert len(recorder.pairs) == 62_160
    assert recorder.nested <= len(recorder.pairs)
    assert recorder.seq_built <= len(recorder.pairs)


def test_extent_is_read_not_walked(lexicon, corpus, monkeypatch, guarded_9):
    """A guard's window reads its anchor's extent slot: ``extent`` never
    recurses in a translation (135,348 calls at guarded k=9 when it did)."""
    assert guarded_9[0].extents == 0
    sentences = list(corpus.values()) + [kstep_sentence(k) for k in range(2, 9)]
    sentences += [guarded_sentence(k, joiner) for joiner in ("and then", "or") for k in range(2, 7)]
    for sentence in sentences:
        recorder, _ = record_translate(sentence, lexicon, monkeypatch)
        assert recorder.extents == 0, sentence


def test_extent_slot_equals_the_walk():
    a, b = Atom("a"), Atom("b")
    raw = And((F(Interval(0, 5), G(Interval(2, 7), a)), Not(F(Interval(1, 3), b))))
    canonical, _ = canonical_form(raw)
    assert canonical._extent == stl.extent(raw) == 12


def test_no_node_table_outlives_its_call(lexicon, monkeypatch):
    """After ``translate`` returns, the nodes it built that are not in its
    result are freed: no table keeps them, and none is left in place."""
    sentence = kstep_sentence(6)
    translate(WARM_UP, lexicon)
    built = []
    keep = stl._keep
    monkeypatch.setattr(stl, "_keep", lambda node, *args: built.append(id(node)) or keep(node, *args))
    result = translate(sentence, lexicon)
    kept = {id(node) for cand in result.candidates for node in nodes_of(cand.formula)}
    intermediate = set(built) - kept
    assert intermediate, "every node built is in the result"
    live = {id(obj) for obj in gc.get_objects() if isinstance(obj, Formula)}
    assert not intermediate & live
    assert type(stl._NODES.get()) is not dict and not stl._NODES.get()


def test_the_table_is_dropped_on_error(lexicon):
    """Both readings build formulas before sequence insertion rejects them."""
    sentence = "Reach B within 10 seconds or avoid A within 10 seconds and then reach C within 5 seconds."
    for call in (translate, analyze):
        with pytest.raises(EmptyCandidateSetError):
            call(sentence, lexicon)
        assert type(stl._NODES.get()) is not dict and not stl._NODES.get()


def test_outside_a_call_nodes_are_not_shared():
    """Constructors called outside a sharing call build a fresh node each
    time, and equality stays structural."""
    a = Atom("a")
    stl.canonicalize(a)
    first = stl.canonical_temporal(F, Interval(0, 3), a)
    second = stl.canonical_temporal(F, Interval(0, 3), a)
    assert first is not second and first == second
    both = stl.sharing(lambda: [stl.canonical_temporal(F, Interval(0, 3), a) for _ in range(2)])()
    assert both[0] is both[1] and both[0] == first
    assert not stl._NODES.get()
