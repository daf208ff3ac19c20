import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambistl.stl import (
    And,
    Atom,
    EmptyWindowError,
    F,
    FormulaDepthError,
    FormulaSyntaxError,
    G,
    Interval,
    Not,
    Or,
    TrueF,
    UnknownAtomError,
    Until,
    atoms_of,
    canonical_form,
    canonicalize,
    extent,
    format_formula,
    parse_formula,
)
from ambistl.regions import Box, RegionMap
from ambistl.trajectory import Trajectory, robustness

from oracle import brute_force_robustness
from packing_reference import reference_canonicalize

A, B, C = Atom("a"), Atom("b"), Atom("c")


# --- strategies -------------------------------------------------------------

atom_names = st.sampled_from(["a", "b", "c", "d"])
intervals = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda ab: Interval(ab[0], ab[0] + ab[1])
)
leaves = st.one_of(st.builds(Atom, atom_names), st.just(TrueF()))


def _connectives(children):
    pairs = st.tuples(children, children)
    triples = st.tuples(children, children, children)
    return st.one_of(
        st.builds(Not, children),
        pairs.map(lambda c: And(c)),
        triples.map(lambda c: And(c)),
        pairs.map(lambda c: Or(c)),
        st.builds(F, intervals, children),
        st.builds(G, intervals, children),
        st.builds(Until, intervals, children, children),
    )


formulas = st.recursive(leaves, _connectives, max_leaves=12)


# --- construction invariants ------------------------------------------------

def test_interval_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Interval(3, 2)
    with pytest.raises(ValueError):
        Interval(-1, 2)


def test_interval_rejects_bool_bounds():
    """``F[True,1]`` would not parse back; a bool bound is not an integer here."""
    for lo, hi in [(True, 1), (0, True), (False, False)]:
        with pytest.raises(ValueError, match="must be integers"):
            Interval(lo, hi)
    with pytest.raises(ValueError, match="must be integers"):
        Interval(0, 1.0)


def test_connectives_require_two_children():
    with pytest.raises(ValueError):
        And((A,))
    with pytest.raises(ValueError):
        Or(())


def test_atoms_of_collects_all_names():
    f = F(Interval(0, 2), And((A, Until(Interval(0, 1), B, Not(C)))))
    assert atoms_of(f) == {"a", "b", "c"}


# --- canonicalization -------------------------------------------------------

def test_canonicalize_sorts_children():
    assert canonicalize(Or((C, B))) == Or((B, C))


def test_canonicalize_double_negation():
    assert canonicalize(Not(Not(A))) == A
    assert canonicalize(Not(Not(Not(A)))) == Not(A)


def test_canonicalize_flattens_nested_and():
    nested = And((And((B, A)), C))
    assert canonicalize(nested) == And((A, B, C))


def test_canonicalize_drops_duplicate_siblings():
    assert canonicalize(And((A, A, B))) == And((A, B))
    assert canonicalize(Or((A, A))) == A  # a singleton collapses


def test_canonicalize_keeps_temporal_structure():
    # no distribution of F over a disjunction
    f = F(Interval(0, 10), Or((B, C)))
    assert canonicalize(f) == f


def _subformulas(formula):
    """Every subformula of ``formula``, children before their parents."""
    if isinstance(formula, (And, Or)):
        children = formula.children
    elif isinstance(formula, Until):
        children = (formula.left, formula.right)
    else:
        children = (formula.child,) if isinstance(formula, (Not, F, G)) else ()
    for child in children:
        yield from _subformulas(child)
    yield formula


@given(formulas)
def test_canonical_form_renders_the_reference_canonical_form(f):
    reference = reference_canonicalize(f)
    canonical, text = canonical_form(f)
    assert canonical == reference
    assert text == format_formula(canonical)
    # The cached path: canonical subformulas keep their renderings, which
    # canonicalizing a formula built over them reads instead of walking.
    fresh = parse_formula(format_formula(f))
    for sub in _subformulas(fresh):
        expected = reference_canonicalize(sub)
        assert canonical_form(sub) == (expected, format_formula(expected))
    for _ in range(2):
        assert canonical_form(fresh) == (reference, text)


def test_canonical_form_flattens_a_connective_that_canonicalizes_into_its_parent():
    assert canonicalize(And((C, Not(Not(And((B, A))))))) == And((A, B, C))
    assert canonical_form(Or((Or((B, B)), Not(Not(Or((A, C))))))) == (
        Or((A, B, C)),
        "(phi_a | phi_b | phi_c)",
    )


@given(formulas)
def test_canonicalize_idempotent(f):
    once = canonicalize(f)
    assert canonicalize(once) == once
    assert canonicalize(once) is once


@given(formulas, st.randoms(use_true_random=False))
def test_canonicalize_invariant_under_child_permutation(f, rng):
    def permute(g):
        if isinstance(g, (And, Or)):
            children = [permute(c) for c in g.children]
            rng.shuffle(children)
            return type(g)(tuple(children))
        if isinstance(g, Not):
            return Not(permute(g.child))
        if isinstance(g, (F, G)):
            return type(g)(g.interval, permute(g.child))
        if isinstance(g, Until):
            return Until(g.interval, permute(g.left), permute(g.right))
        return g

    assert canonicalize(permute(f)) == canonicalize(f)


# --- extent -----------------------------------------------------------------

def test_extent_single_bound():
    assert extent(F(Interval(0, 10), B)) == 10


def test_extent_nested_sequence():
    f = F(Interval(0, 10), And((B, F(Interval(0, 15), C))))
    assert extent(f) == 25


def test_extent_sequence_with_disjunction():
    inner = Or((F(Interval(0, 15), C), F(Interval(0, 5), Atom("d"))))
    f = F(Interval(0, 10), And((B, inner)))
    assert extent(f) == 25


def test_extent_of_leaves_is_zero():
    assert extent(A) == 0
    assert extent(TrueF()) == 0


@given(formulas)
def test_extent_monotone_over_subformulas(f):
    def children(g):
        if isinstance(g, Not):
            return [g.child]
        if isinstance(g, (And, Or)):
            return list(g.children)
        if isinstance(g, (F, G)):
            return [g.child]
        if isinstance(g, Until):
            return [g.left, g.right]
        return []

    stack = [f]
    while stack:
        g = stack.pop()
        for c in children(g):
            assert extent(c) <= extent(g)
            stack.append(c)


# --- formatting and the reader ----------------------------------------------

def test_format_examples():
    assert format_formula(F(Interval(0, 10), B)) == "F[0,10] phi_b"
    assert format_formula(And((B, Not(A)))) == "(phi_b & !phi_a)"
    assert format_formula(TrueF()) == "true"
    assert (
        format_formula(F(Interval(0, 10), And((B, F(Interval(0, 15), C)))))
        == "F[0,10](phi_b & F[0,15] phi_c)"
    )
    assert format_formula(Until(Interval(1, 3), A, B)) == "U[1,3](phi_a, phi_b)"


@given(formulas)
def test_format_round_trips(f):
    assert parse_formula(format_formula(f)) == f


def test_parse_rejects_garbage():
    for text in [
        "", "phi_", "F[2,1] phi_a", "(phi_a &)", "(phi_a & phi_b | phi_c)", "F phi_a",
        "F[", "F[1,", "F[a,3] phi_b", "F[1,0] phi_a",
    ]:
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)


def test_parse_formula_reads_only_decimal_digits():
    """'²' is a digit to str.isdigit but not to int()."""
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F[²,3] phi_a")


def test_parse_formula_deep_nesting_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
        parse_formula("!" * 100_000 + "phi_a")


# --- robustness -------------------------------------------------------------

UNIT_REGIONS = RegionMap({"m": Box(0.0, 0.0, 10.0, 10.0)})
M = Atom("m")


def margins_trajectory(margins):
    """Trajectory whose per-step margin for atom m equals the given values.

    Points (v, 5) inside the 10x10 box have margin min(v, 10-v, 5, 5) = v
    for v <= 5; negative values place the point left of the box.
    """
    return Trajectory(np.array([(float(v), 5.0) for v in margins]))


def test_atom_robustness_is_margin():
    x = margins_trajectory([2.0])
    assert robustness(M, x, UNIT_REGIONS, 0) == 2.0


def test_eventually_takes_max_over_window():
    x = margins_trajectory([-1.0, -2.0, 5.0])
    assert robustness(F(Interval(0, 2), M), x, UNIT_REGIONS, 0) == 5.0


def test_always_takes_min_over_window():
    x = margins_trajectory([-1.0, -2.0, 5.0])
    assert robustness(G(Interval(0, 2), M), x, UNIT_REGIONS, 0) == -2.0


def test_until_matches_hand_computation():
    boxes = {"p": (0.0, 0.0, 10.0, 10.0), "q": (0.0, 0.0, 4.0, 4.0)}
    points = [(1.0, 1.0), (3.0, 3.0), (9.0, 9.0)]
    regions = RegionMap({k: Box(*v) for k, v in boxes.items()})
    x = Trajectory(np.array(points))
    f = Until(Interval(0, 2), Atom("p"), Atom("q"))
    value = robustness(f, x, regions, 0)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert value == pytest.approx(brute_force_robustness(f, points, boxes, 0), abs=1e-12)


def test_window_clipped_to_trajectory_end():
    x = margins_trajectory([1.0, 2.0, 3.0])
    # horizon 10 but only 3 states: max over the clipped window [0,2]
    assert robustness(F(Interval(0, 10), M), x, UNIT_REGIONS, 0) == 3.0


def test_empty_window_is_an_error():
    x = margins_trajectory([1.0, 2.0, 3.0])
    with pytest.raises(EmptyWindowError):
        robustness(F(Interval(5, 9), M), x, UNIT_REGIONS, 0)
    with pytest.raises(EmptyWindowError):
        robustness(M, x, UNIT_REGIONS, 7)


@pytest.mark.parametrize("t", [1.0, True, np.bool_(True), np.float64(1.0), "1", None])
def test_robustness_time_index_must_be_an_integer(t):
    x = margins_trajectory([1.0, 2.0, 3.0])
    with pytest.raises(TypeError, match="time index t must be an integer"):
        robustness(M, x, UNIT_REGIONS, t)


def test_robustness_accepts_a_numpy_integer_time_index():
    x = margins_trajectory([1.0, 2.0, 3.0])
    assert robustness(M, x, UNIT_REGIONS, np.int64(1)) == robustness(M, x, UNIT_REGIONS, 1) == 2.0


def test_unknown_atom_error():
    x = margins_trajectory([1.0])
    with pytest.raises(UnknownAtomError):
        robustness(Atom("ghost"), x, UNIT_REGIONS, 0)


def test_first_error_in_evaluation_order_wins():
    """An ungrounded atom and an empty window in one formula: whichever
    the evaluation reaches first is raised."""
    x = margins_trajectory([1.0] * 11)
    window_first = parse_formula("(F[50,60] phi_m & phi_zz)")
    with pytest.raises(EmptyWindowError, match=r"\[50,60\] has no overlap with \[0,10\]"):
        robustness(window_first, x, UNIT_REGIONS, 0)
    atom_first = parse_formula("(phi_zz & F[50,60] phi_m)")
    with pytest.raises(UnknownAtomError, match="atom 'zz' has no region"):
        robustness(atom_first, x, UNIT_REGIONS, 0)


def test_over_deep_formula_is_a_typed_error():
    deep = M
    for _ in range(10_000):
        deep = Not(deep)
    x = Trajectory(np.array([(1.0, 5.0)]))
    walks = [canonicalize, format_formula, str, extent, atoms_of,
             lambda f: robustness(f, x, UNIT_REGIONS, 0)]
    for walk in walks:
        with pytest.raises(FormulaDepthError, match="recursion limit"):
            walk(deep)
    # The evaluator nests more frames per operator than extent does.
    chain = M
    for _ in range(sys.getrecursionlimit() // 2):
        chain = G(Interval(0, 0), chain)
    assert extent(chain) == 0
    with pytest.raises(FormulaDepthError, match="recursion limit"):
        robustness(chain, x, UNIT_REGIONS, 0)


@pytest.mark.parametrize("walk", [format_formula, canonical_form, extent, atoms_of])
def test_walks_reject_a_non_formula(walk):
    for node in (Interval(0, 1), And((Interval(0, 1), M))):
        with pytest.raises(TypeError, match="not a formula node"):
            walk(node)


def test_true_is_top_element():
    x = margins_trajectory([1.0])
    assert robustness(TrueF(), x, UNIT_REGIONS, 0) == math.inf
    assert robustness(Not(TrueF()), x, UNIT_REGIONS, 0) == -math.inf


def test_nonzero_evaluation_time():
    x = margins_trajectory([-1.0, 4.0, 2.0, 1.0])
    assert robustness(F(Interval(0, 1), M), x, UNIT_REGIONS, 2) == 2.0
    assert robustness(G(Interval(0, 1), M), x, UNIT_REGIONS, 1) == 2.0


# --- oracle agreement and dualities on random instances ----------------------

def _random_pairs(seed, count):
    """Formula/trajectory pairs sized so that even an F[0,2]/G[0,2] wrapper
    around the formula never runs past the end of the trajectory."""
    import random

    from conftest import random_formula, random_trajectory

    rng = random.Random(seed)
    for _ in range(count):
        f = random_formula(rng, 3)
        min_len = extent(f) + 2 + 1
        yield f, random_trajectory(rng, min_len=min_len, max_len=max(min_len, 10))


DEMO_BOXES = {
    "a": (2.0, 0.0, 4.0, 2.0),
    "b": (6.0, 0.0, 8.0, 2.0),
    "c": (6.0, 6.0, 8.0, 8.0),
    "d": (0.0, 6.0, 2.0, 8.0),
}
DEMO_REGIONS = RegionMap({k: Box(*v) for k, v in DEMO_BOXES.items()})


def _close(u, v, tol=1e-12):
    if math.isinf(u) or math.isinf(v):
        return u == v
    return abs(u - v) <= tol


def _agrees_with_oracle(f, x, t) -> str:
    """Check robustness at ``t`` against the oracle; say which case it was.

    Where a window is empty both evaluators must refuse: the library with
    :class:`EmptyWindowError`, the oracle with ``ValueError``.
    """
    points = [tuple(p) for p in x.states.tolist()]
    try:
        expected = brute_force_robustness(f, points, DEMO_BOXES, t)
    except ValueError:
        with pytest.raises(EmptyWindowError):
            robustness(f, x, DEMO_REGIONS, t)
        return "empty"
    assert _close(robustness(f, x, DEMO_REGIONS, t), expected)
    return "clipped" if t + extent(f) > x.horizon else "inside"


def test_recursive_evaluator_matches_oracle_sample():
    """Every start time of each trajectory: windows inside it at t = 0 and
    later, windows clipped at its end, and windows wholly past it."""
    cases = {"inside": 0, "clipped": 0, "empty": 0}
    late_t = late_lo = 0
    for f, x in _random_pairs(seed=7, count=50):
        for t in range(len(x)):
            case = _agrees_with_oracle(f, x, t)
            cases[case] += 1
            late_t += case == "inside" and t > 0 and t + extent(f) < x.horizon
        late_lo += "[1," in str(f) or "[2," in str(f)
    assert min(cases.values()) > 10 and late_t > 100 and late_lo > 20, (cases, late_t, late_lo)


def test_always_eventually_duality_sample():
    interval = Interval(0, 2)
    for f, x in _random_pairs(seed=8, count=50):
        lhs = robustness(G(interval, f), x, DEMO_REGIONS, 0)
        rhs = -robustness(F(interval, Not(f)), x, DEMO_REGIONS, 0)
        assert _close(lhs, rhs)


def test_eventually_as_until_sample():
    interval = Interval(0, 2)
    for f, x in _random_pairs(seed=9, count=50):
        lhs = robustness(F(interval, f), x, DEMO_REGIONS, 0)
        rhs = robustness(Until(interval, TrueF(), f), x, DEMO_REGIONS, 0)
        assert _close(lhs, rhs)


@settings(max_examples=100)
@given(formulas, st.integers(0, 5), st.integers(-6, 4))
def test_oracle_agreement_property(f, t, spare):
    """The trajectory ends ``spare`` steps after the formula's reach
    ``t + extent(f)``, or before it when ``spare`` is negative."""
    import random

    rng = random.Random(t * 1000 + 17)
    length = max(t + 1, t + extent(f) + 1 + spare)
    points = [(rng.uniform(-1, 9), rng.uniform(-1, 9)) for _ in range(length)]
    _agrees_with_oracle(f, Trajectory(np.array(points)), t)
