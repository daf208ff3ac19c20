"""Value semantics of every immutable class of the package: equality, hashing,
repr, pattern matching, immutability and the checks their constructors make."""

import copy
import math
import pickle

import numpy as np
import pytest

from ambistl.lexicon import Basic, LexEntry, Lexicon, LexiconError, Slash
from ambistl.parser import Chart, Derivation, Leaf, Node
from ambistl.pipeline import Candidate, CandidateSet, DerivationReport
from ambistl.record import Record
from ambistl.regions import Box, RegionMap
from ambistl.semantics import App, Con, IntC, Lam, Var
from ambistl.stl import And, Atom, F, G, Interval, Not, Or, TrueF, Until
from ambistl.trajectory import ReportRow, RobustnessReport, Trajectory

_TASK = Slash("/", Basic("T"), Basic("NP"))
_REACH = LexEntry(("reach",), _TASK, 0.0, Lam("x", Lam("i", Con("F", (Var("i"), Var("x"))))))
_B = LexEntry(("b",), Basic("NP"), 0.0, Atom("b"))
_STATES = np.zeros((3, 2))

# Each value class, its fields in order, and a function that builds a value
# of it from fresh parts every call.  Values whose fields hold a dict or an
# array are unhashable.
VALUES = [
    (Interval, ("lo", "hi"), lambda: Interval(0, 5)),
    (TrueF, (), lambda: TrueF()),
    (Atom, ("name",), lambda: Atom("b")),
    (Not, ("child",), lambda: Not(Atom("a"))),
    (And, ("children",), lambda: And((Atom("a"), Atom("b")))),
    (Or, ("children",), lambda: Or((Atom("a"), Atom("b")))),
    (F, ("interval", "child"), lambda: F(Interval(0, 5), Atom("b"))),
    (G, ("interval", "child"), lambda: G(Interval(0, 5), Atom("b"))),
    (Until, ("interval", "left", "right"), lambda: Until(Interval(0, 5), Atom("a"), Atom("b"))),
    (Var, ("name",), lambda: Var("x")),
    (Lam, ("var", "body"), lambda: Lam("x", Var("x"))),
    (App, ("fn", "arg"), lambda: App(Var("f"), IntC(1))),
    (IntC, ("value",), lambda: IntC(3)),
    (Con, ("name", "args"), lambda: Con("I", (IntC(0), IntC(5)))),
    (Basic, ("name",), lambda: Basic("NP")),
    (Slash, ("slash", "result", "argument"), lambda: Slash("/", Basic("T"), Basic("NP"))),
    (LexEntry, ("surface", "category", "weight", "template"),
     lambda: LexEntry(("b",), Basic("NP"), 0.0, Atom("b"))),
    (Lexicon, ("entries", "rule_weights"), lambda: Lexicon({("b",): (_B,)}, {"fa": 0.0})),
    (Leaf, ("entry", "start", "end"), lambda: Leaf(_B, 1, 2)),
    (Node, ("rule", "category", "left", "right", "start", "end"),
     lambda: Node("fa", Slash("/", Basic("T"), Basic("NP")), Leaf(_REACH, 0, 1), Leaf(_B, 1, 2), 0, 2)),
    (Derivation, ("root", "score"), lambda: Derivation(Leaf(_B, 0, 1), -0.5)),
    (Chart, ("words", "cells"), lambda: Chart(("b",), {(0, 1): {Basic("NP"): [_B]}})),
    (Candidate, ("formula", "score", "probability", "support_count", "text"),
     lambda: Candidate(Atom("b"), 1.0, 1.0, 1, "phi_b")),
    (CandidateSet, ("sentence", "candidates", "n_derivations", "discarded_count"),
     lambda: CandidateSet("b", (Candidate(Atom("b"), 1.0, 1.0, 1, "phi_b"),), 1, 0)),
    (DerivationReport, ("index", "score", "root", "meaning", "formula", "error"),
     lambda: DerivationReport(0, -0.5, Leaf(_B, 0, 1), Atom("b"), Atom("b"), None)),
    (Box, ("xmin", "ymin", "xmax", "ymax"), lambda: Box(0.0, 0.0, 1.0, 2.0)),
    (RegionMap, ("boxes",), lambda: RegionMap({"a": Box(0.0, 0.0, 1.0, 1.0)})),
    # Its states are compared elementwise by numpy, so equal trajectories
    # share one array here; np.asarray keeps a float array as it is.
    (Trajectory, ("states",), lambda: Trajectory(_STATES)),
    (ReportRow, ("formula", "probability", "robustness", "satisfied", "error"),
     lambda: ReportRow("phi_b", 1.0, 0.5, True, None)),
    (RobustnessReport, ("sentence", "rows"),
     lambda: RobustnessReport("b", (ReportRow("phi_b", 1.0, 0.5, True),))),
]
UNHASHABLE = {Lexicon, Chart, RegionMap, Trajectory}
# Interned classes: equal values are one object, and equality is identity.
INTERNED = {Basic, Slash}


def _ids(cases):
    return [case[0].__name__ for case in cases]


def test_every_value_class_is_covered():
    found, stack = set(), [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__name__ not in ("Formula", "Term"):
                found.add(sub)
    assert found == {cls for cls, _, _ in VALUES}


@pytest.mark.parametrize("cls, fields, make", VALUES, ids=_ids(VALUES))
def test_value_semantics(cls, fields, make):
    value, twin = make(), make()
    assert type(value) is cls and (value is twin) == (cls in INTERNED)
    assert value == twin and not value != twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
        assert {value: 1}[twin] == 1

    assert cls.__match_args__ == fields
    values = [getattr(value, name) for name in fields]
    assert cls(*values) == value
    assert cls(**dict(zip(fields, values))) == value
    assert repr(value) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(fields, values))})"
    assert repr(pickle.loads(pickle.dumps(value))) == repr(value)
    assert copy.copy(value) == value
    if cls in INTERNED:
        assert pickle.loads(pickle.dumps(value)) is value
        assert copy.copy(value) is value and copy.deepcopy(value) is value

    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in fields] == values


def test_classes_with_equal_fields_differ():
    a, b = Atom("a"), Atom("b")
    assert And((a, b)) != Or((a, b))
    assert F(Interval(0, 5), a) != G(Interval(0, 5), a)
    assert Var("x") != Atom("x")
    assert Interval(0, 5) != (0, 5)


def test_reprs_are_the_field_reprs():
    assert repr(Interval(0, 5)) == "Interval(lo=0, hi=5)"
    assert repr(Atom("b")) == "Atom(name='b')"
    assert repr(App(Var("f"), IntC(1))) == "App(fn=Var(name='f'), arg=IntC(value=1))"
    assert repr(TrueF()) == "TrueF()"


def test_pattern_matching_reads_fields_in_order():
    match Con("I", (IntC(0), IntC(5))):
        case Con("I", (IntC(lo), IntC(hi))):
            assert (lo, hi) == (0, 5)
        case _:
            pytest.fail("Con did not match by position")
    match Until(Interval(1, 2), Atom("a"), Atom("b")):
        case Until(Interval(lo, hi), Atom(left), Atom(right)):
            assert (lo, hi, left, right) == (1, 2, "a", "b")
        case _:
            pytest.fail("Until did not match by position")


def test_defaults():
    row = ReportRow(formula="phi_b", probability=1.0, robustness=None, satisfied=None)
    assert row.error is None
    assert row == ReportRow("phi_b", 1.0, None, None, None)
    assert RobustnessReport("b").rows == ()
    first, second = Lexicon({}), Lexicon({})
    assert first.rule_weights == {} and first.rule_weights is not second.rule_weights


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Interval(1.5, 2), ValueError, "interval bounds must be integers"),
        (lambda: Interval(True, 2), ValueError, "interval bounds must be integers"),
        (lambda: Interval(3, 2), ValueError, "invalid interval [3,2]"),
        (lambda: Interval(-1, 2), ValueError, "invalid interval [-1,2]"),
        (lambda: And((Atom("a"),)), ValueError, "And requires at least two children"),
        (lambda: Or(()), ValueError, "Or requires at least two children"),
        (lambda: LexEntry((), Basic("NP"), 0.0, Atom("b")), LexiconError,
         "surface must be 1-3 tokens, got ()"),
        (lambda: LexEntry(("a", "b", "c", "d"), Basic("NP"), 0.0, Atom("b")), LexiconError,
         "surface must be 1-3 tokens, got ('a', 'b', 'c', 'd')"),
        (lambda: LexEntry(("Reach",), Basic("NP"), 0.0, Atom("b")), LexiconError,
         "bad surface token 'Reach'"),
        (lambda: LexEntry(("reach",), Basic("NP"), 0.0, Var("x")), LexiconError,
         "template for 'reach' has free variables: ['x']"),
        (lambda: Box(0, 0, math.inf, 1), ValueError, "non-finite coordinate"),
        (lambda: Box(0, math.nan, 1, 1), ValueError, "non-finite coordinate"),
        (lambda: Box(0, 0, 0, 1), ValueError, "degenerate box [0,0]x[0,1]"),
        (lambda: Trajectory(np.zeros((0, 2))), ValueError,
         "trajectory must be a non-empty (N, 2) array"),
        (lambda: Trajectory([1, 2]), ValueError, "trajectory must be a non-empty (N, 2) array"),
        (lambda: Trajectory([[0, math.nan]]), ValueError, "trajectory coordinates must be finite"),
    ],
)
def test_constructor_checks(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message
