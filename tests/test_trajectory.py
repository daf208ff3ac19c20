import io
import random
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambistl import trajectory as trajectory_module
from ambistl.pipeline import aggregate, translate
from ambistl.stl import Atom, Interval, Not, UnknownAtomError, Until, extent, parse_formula
from ambistl.regions import Box, RegionFileError, RegionMap, load_regions
from ambistl.trajectory import (
    Trajectory,
    TrajectoryFileError,
    evaluate_candidates,
    load_trajectory,
    margins,
    robustness,
)

from conftest import (
    DEMO_BOXES, REPO, assert_rows_are_calls_alone, count_evaluations, guarded_sentence,
    kstep_sentence, random_formula, random_trajectory, random_walk, temporal_depth,
)
from loader_oracle import reference_load_trajectory
from oracle import brute_force_robustness
from reference_formulas import S8_GLOBAL, S8_LOCAL


# --- margins -------------------------------------------------------------------

UNIT_BOX = Box(0.0, 0.0, 1.0, 1.0)


def margin(box: Box, point) -> float:
    """margins of ``box`` on a one-row array."""
    return float(margins(box, np.array([point], dtype=float))[0])


def test_margin_inside_center():
    assert margin(UNIT_BOX, (0.5, 0.5)) == 0.5


def test_margin_outside():
    assert margin(UNIT_BOX, (2.0, 0.5)) == -1.0


def test_margin_on_boundary():
    assert margin(UNIT_BOX, (1.0, 0.5)) == 0.0


def test_margins_equal_the_builtin_min_over_faces():
    """margins, on the whole array and on one-row arrays, equals min()
    over the four face distances in the order left, right, bottom, top,
    down to the sign of a zero where two faces meet."""
    box = Box(0.0, -1.0, 2.0, 0.0)
    coords = [-0.0, 0.0, 0.5, 1.0, 2.0, -1.0, 3.0]
    points = [(px, py) for px in coords for py in coords]
    expected = [
        repr(min(px - box.xmin, box.xmax - px, py - box.ymin, box.ymax - py)) for px, py in points
    ]
    assert [repr(m) for m in margins(box, np.array(points)).tolist()] == expected
    assert [repr(margin(box, p)) for p in points] == expected


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        Box(6.0, 4.0, 4.0, 6.0)


# --- regions file ----------------------------------------------------------------

def test_load_regions_happy_path():
    regions = load_regions("b: 4 4 6 6\nc: 0 0 1 1\n")
    assert regions.boxes["b"] == Box(4.0, 4.0, 6.0, 6.0)
    assert "c" in regions


def test_load_regions_degenerate_box():
    with pytest.raises(RegionFileError, match="degenerate"):
        load_regions("b: 6 4 4 6")


def test_load_regions_duplicate_name():
    with pytest.raises(RegionFileError, match="duplicate"):
        load_regions("a: 0 0 1 1\na: 2 2 3 3")


def test_load_regions_malformed_line():
    with pytest.raises(RegionFileError, match="line 1"):
        load_regions("a 0 0 1 1")
    with pytest.raises(RegionFileError):
        load_regions("a: 0 0 one 1")
    with pytest.raises(RegionFileError, match="empty"):
        load_regions("# nothing\n")


def test_load_regions_from_stream():
    regions = load_regions(io.StringIO("a: 0 0 1 1  # comment\n"))
    assert regions.names() == {"a"}


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e999"])
def test_load_regions_rejects_non_finite_bounds(bad):
    with pytest.raises(RegionFileError, match="^line 2: non-finite coordinate$"):
        load_regions(f"a: 0 0 1 1\nb: 0 0 {bad} 1\n")
    with pytest.raises(ValueError, match="non-finite"):
        Box(0.0, float(bad), 1.0, 1.0)


def test_load_regions_breaks_lines_as_a_file_does():
    """A form feed inside a line is whitespace, not a line break."""
    for source in ("a: 0 0 1\x0c 1\nb: 2 2 3 3\n", io.StringIO("a: 0 0 1\x0c 1\rb: 2 2 3 3")):
        assert load_regions(source).boxes == {"a": Box(0, 0, 1, 1), "b": Box(2, 2, 3, 3)}


# --- trajectory file ---------------------------------------------------------------

def test_load_trajectory_happy_path():
    x = load_trajectory("t,x,y\n0,0,0\n1,1,1\n")
    assert len(x) == 2
    assert x.horizon == 1
    assert tuple(x.states[1]) == (1.0, 1.0)


def test_load_trajectory_gap():
    with pytest.raises(TrajectoryFileError, match="gap"):
        load_trajectory("t,x,y\n0,0,0\n2,1,1\n")


def test_load_trajectory_non_integer_t():
    with pytest.raises(TrajectoryFileError, match="non-integer"):
        load_trajectory("t,x,y\n0.5,0,0\n")


def test_load_trajectory_header_only():
    with pytest.raises(TrajectoryFileError, match="no states"):
        load_trajectory("t,x,y\n")


def test_load_trajectory_empty_and_bad_header():
    with pytest.raises(TrajectoryFileError, match="empty"):
        load_trajectory("")
    with pytest.raises(TrajectoryFileError, match="header"):
        load_trajectory("time,x,y\n0,0,0\n")


def test_load_trajectory_unclosed_quote_is_a_file_error():
    # the open quote runs to the end of the text, past the CSV field size limit
    text = 't,x,y\n0,1,2\n1,"' + "1,2\n" * 40_000
    with pytest.raises(TrajectoryFileError, match="^malformed CSV: field larger than field limit"):
        load_trajectory(text)


def test_str_source_breaks_lines_as_a_file_does(tmp_path):
    text = "t,x,y\n0,0\x0c,0\n1,1,1\n"
    path = tmp_path / "trajectory.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8", newline="") as handle:
        from_file = load_trajectory(handle).states
    assert load_trajectory(text).states.tolist() == from_file.tolist() == [[0, 0], [1, 1]]


LOADER_CASES = {
    "plain": "t,x,y\n0,0,0\n1,1.5,-2\n2,3e2,4\n",
    "quoted fields": '"t","x","y"\n"0","1.5"," 2"\n1,"3",4\n',
    "quoted comma": 't,x,y\n0,0,0\n1,"3,5",4\n',
    "whitespace-only and comma-only rows": "t,x,y\n0,0,0\n   \n,,\n , ,\t\n1,1,1\n,\n",
    "signed and padded t": "t,x,y\n 0,0,0\n+1,1,1\n 2 ,2,2\n",
    "padded t out of order": "t,x,y\n0,0,0\n 7,1,1\n",
    "t with other whitespace": "t,x,y\n\x1f0\xa0,0,0\n1,1,1\n",
    "crlf": "t,x,y\r\n0,1,2\r\n1,3,4\r\n",
    "lone cr": "t,x,y\r0,1,2\r1,3,4\r",
    "leading blank lines": "\n\n  \nt,x,y\n0,1,2\n1,3,4\n",
    "space-padded header": " t , x , y \n0,1,2\n1,3,4\n",
    "upper-case header": "T,X,Y\n0,1,2\n",
    "t 1.0": "t,x,y\n0,0,0\n1.0,1,1\n",
    "t 1e0": "t,x,y\n0,0,0\n1e0,1,1\n",
    "t +1": "t,x,y\n0,0,0\n+1,1,1\n",
    "t 01": "t,x,y\n0,0,0\n01,1,1\n",
    "t -0": "t,x,y\n-0,0,0\n",
    "t 1_0 where 10 is due": "t,x,y\n" + "".join(f"{t},0,0\n" for t in range(10)) + "1_0,1,1\n",
    "t past int64": "t,x,y\n0,0,0\n18446744073709551617,1,1\n",
    "empty t": "t,x,y\n0,0,0\n,1,1\n",
    "x 1.5 with unit separator": "t,x,y\n0,1.5\x1f,0\n",
    "x 1_0": "t,x,y\n0,1_0,0\n",
    "x Arabic-Indic digit": "t,x,y\n0,\u0661,0\n",
    "x 1e999": "t,x,y\n0,0,0\n1,1e999,0\n",
    "y -1e999": "t,x,y\n0,0,-1e999\n",
    "x 1e": "t,x,y\n0,1e,0\n",
    "empty x": "t,x,y\n0,,0\n",
    "signs, exponents and bare points": "t,x,y\n0,+.5,5.\n1,-0.0,1E-400\n2,1e+3,-2E5\n",
    "one row": "t,x,y\n0,1,2\n",
    "no final newline": "t,x,y\n0,1,2\n1,3,4",
    "blank lines in canonical body": "t,x,y\n0,1,2\n\n\n1,3,4\n\n",
    "comma-only row in canonical body": "t,x,y\n0,1,2\n,,\n1,3,4\n",
    "trailing comma": "t,x,y\n0,1,2,\n",
    "canonical header, empty body": "t,x,y\n\n\n",
    "four columns": "t,x,y\n0,0,0\n1,1,1,1\n",
    "two columns only": "t,x,y\n0,0\n1,1\n",
    "non-numeric then gap": "t,x,y\n0,0,0\n1,abc,3\n3,1,1\n",
    "gap then non-numeric": "t,x,y\n0,0,0\n2,1,1\n2,abc,3\n",
    "non-integer t then four columns": "t,x,y\n0,0,0\n1.0,1,1\n2,1,1,1\n",
    "nan then non-numeric": "t,x,y\n0,nan,0\n1,x,0\n",
    "nan": "t,x,y\n0,0,0\n1,nan,0\n",
    "inf": "t,x,y\n0,0,inf\n1,0,0\n",
    "-inf and NaN": "t,x,y\n0,0,0\n1,0,0\n2,-Infinity,NaN\n",
    "header only": "t,x,y\n",
    "bad header": "time,x,y\n0,0,0\n",
    "empty": "\n \n",
}


def _load_outcome(loader, source):
    try:
        return loader(source).states
    except Exception as exc:  # any error, compared by its type and text
        return f"{type(exc).__name__}: {exc}"


def _assert_loaders_agree(text: str, directory: Path) -> None:
    """Equal arrays (bit for bit, with dtype and shape) or the identical
    error, from a str, a text stream and a file opened as the CLI opens it."""
    path = directory / "trajectory.csv"
    path.write_text(text, encoding="utf-8", newline="")
    outcomes = []
    for loader in (load_trajectory, reference_load_trajectory):
        with open(path, encoding="utf-8", newline="") as handle:
            outcomes.append([_load_outcome(loader, src) for src in (text, io.StringIO(text), handle)])
    for got, want in zip(*outcomes):
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray), got
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(LOADER_CASES))
def test_load_trajectory_matches_row_loop_reference(name, tmp_path):
    _assert_loaders_agree(LOADER_CASES[name], tmp_path)


# Cells mostly from the alphabet of canonical text, so that much of what is
# drawn reaches numpy's parser, mixed with characters on which numpy's and
# Python's number parsers are known to disagree or that break the CSV
# structure, and with numbers whose conversion is exact, overflows or is not
# finite.  Headers and line breaks lean to the canonical ones for the same
# reason.
_canonical_chars = st.sampled_from(list("0123456789.eE+-"))
_adversarial_chars = st.sampled_from(list("_ \t\x1f\xa0\u0661\",\r"))
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1e999", "-1e999", "-0.0", "+.5", "7.", "1E-400", "1.0", "01", "+1"]),
)
_cells = st.one_of(
    st.text(_canonical_chars, max_size=5),
    st.tuples(st.text(_canonical_chars, max_size=3), _adversarial_chars, st.text(_canonical_chars, max_size=2))
    .map("".join),
    st.sampled_from(["nan", "inf", "-inf", "1e0", "1_0", "\u0661"]),
    _numbers,
)
_header_and_newline = st.one_of(
    st.just(("t,x,y", "\n")),
    st.tuples(
        st.sampled_from(["t,x,y", " t , x , y", "T,X,Y", "t,x", "time,x,y", "", ",,"]),
        st.sampled_from(["\n", "\r\n", "\r"]),
    ),
)


@st.composite
def _trajectory_csvs(draw) -> str:
    header, newline = draw(_header_and_newline)
    lines = [header]
    for t in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["numbers"] * 8 + ["cells", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "", ",,", " ", ",", " , ,\t"])))
        elif kind == "numbers":
            lines.append(f"{t},{draw(_numbers)},{draw(_numbers)}")
        else:
            lines.append(",".join(draw(st.tuples(_cells, _cells, _cells))))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=300, deadline=None)
@given(_trajectory_csvs())
def test_load_trajectory_matches_reference_on_adversarial_text(text):
    with tempfile.TemporaryDirectory() as directory:
        _assert_loaders_agree(text, Path(directory))


def test_canonical_text_skips_the_row_loop(monkeypatch):
    text = "t,x,y\n0,1.5,-2\n\n1,+.5,3E2\n2,-0.0,7.\n"
    want = reference_load_trajectory(text).states.tobytes()

    def no_row_loop(text):
        raise AssertionError("row loop reached")

    monkeypatch.setattr(trajectory_module, "_states_row_by_row", no_row_loop)
    assert load_trajectory(text).states.tobytes() == want
    assert load_trajectory("\ufeff" + text).states.tobytes() == want  # a byte-order mark
    with pytest.raises(TrajectoryFileError, match="^row 3: non-finite coordinate$"):
        load_trajectory("t,x,y\n0,0,0\n1,1e999,0\n")


def test_c_tier_falls_back_when_numpy_parses_ints_via_floats(monkeypatch):
    """numpy < 2 reads an int64 cell "1.0" as 1 with a DeprecationWarning;
    the loader must neither accept it nor let the warning out."""
    real_loadtxt = np.loadtxt

    def loadtxt_numpy1(fname, dtype, **kwargs):
        text = fname.read()
        if any(not line.split(",")[0].lstrip("+-").isdigit() for line in text.splitlines() if line):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        as_floats = [(name, np.float64) for name in dtype.names]
        return real_loadtxt(io.StringIO(text), dtype=as_floats, **kwargs).astype(dtype)

    text = "t,x,y\n0,0,0\n1.0,1,1\n"
    with pytest.warns(DeprecationWarning):
        assert loadtxt_numpy1(io.StringIO(text[6:]), trajectory_module._CANONICAL_ROW,
                              delimiter=",")["t"].tolist() == [0, 1]
    monkeypatch.setattr(np, "loadtxt", loadtxt_numpy1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrajectoryFileError, match="^row 3: non-integer t '1.0'$"):
            load_trajectory(text)
        assert load_trajectory("t,x,y\n0,0,0\n1,1,1\n").states.tolist() == [[0, 0], [1, 1]]


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.zeros((3, 3)))


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("t", [0, 2])
def test_trajectory_rejects_non_finite(t, bad):
    states = np.zeros((4, 2))
    states[t, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Trajectory(states)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("t", [0, 2])
def test_load_trajectory_rejects_non_finite(t, bad):
    rows = [f"{i},0,0" for i in range(4)]
    rows[t] = f"{t},{bad},0"
    with pytest.raises(TrajectoryFileError, match=f"row {t + 2}: non-finite"):
        load_trajectory("t,x,y\n" + "\n".join(rows) + "\n")


# --- candidate evaluation ------------------------------------------------------------

def test_discriminating_trajectory_separates_s8_readings(
    lexicon, demo_regions, through_a_trajectory
):
    """A run that cuts through A but reaches B in time satisfies the local
    reading and violates the global one."""
    candidate_set = translate(
        "Within 10 seconds, reach B or reach C while avoiding A.", lexicon
    )
    report = evaluate_candidates(candidate_set, through_a_trajectory, demo_regions)
    by_formula = {row.formula: row for row in report.rows}

    from ambistl.stl import canonicalize, format_formula

    local = by_formula[format_formula(canonicalize(S8_LOCAL))]
    global_ = by_formula[format_formula(canonicalize(S8_GLOBAL))]
    assert local.robustness > 0 and local.satisfied
    assert global_.robustness < 0 and not global_.satisfied

    # cross-check both signs with the brute-force oracle
    points = [tuple(p) for p in through_a_trajectory.states]
    boxes = {name: (b.xmin, b.ymin, b.xmax, b.ymax) for name, b in demo_regions.boxes.items()}
    assert brute_force_robustness(S8_LOCAL, points, boxes, 0) > 0
    assert brute_force_robustness(S8_GLOBAL, points, boxes, 0) < 0


def test_robustness_depth_inside_target(lexicon, demo_regions):
    """Fully inside B from the start: robustness is the deepest margin in the window."""
    x = Trajectory(np.array([(7.0, 1.0)] * 11))
    candidate_set = translate("Reach B within 10 seconds.", lexicon)
    report = evaluate_candidates(candidate_set, x, demo_regions)
    assert report.rows[0].robustness == pytest.approx(1.0)
    points = [tuple(p) for p in x.states]
    boxes = {name: (b.xmin, b.ymin, b.xmax, b.ymax) for name, b in demo_regions.boxes.items()}
    fml = candidate_set.candidates[0].formula
    assert report.rows[0].robustness == pytest.approx(
        brute_force_robustness(fml, points, boxes, 0), abs=1e-12
    )


def test_short_trajectory_reports_per_row_error(lexicon, demo_regions):
    x = Trajectory(np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]))
    candidate_set = translate("Reach B within 10 seconds.", lexicon)
    report = evaluate_candidates(candidate_set, x, demo_regions)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.error is not None and "horizon-exceeded" in row.error
    assert row.robustness is None and row.satisfied is None


def test_formula_within_horizon_never_hits_an_empty_window(demo_regions):
    """The horizon pre-check of evaluate_candidates is sufficient: whenever
    extent(f) <= T, every window robustness visits from t=0 is non-empty,
    so the only per-row error is horizon-exceeded."""
    rng = random.Random(20260)
    fitting = exceeding = 0
    for _ in range(300):
        formula = random_formula(rng, depth=3)
        x = random_trajectory(rng, min_len=1, max_len=8)
        if extent(formula) > x.horizon:
            exceeding += 1
            continue
        fitting += 1
        robustness(formula, x, demo_regions, 0)
        [row] = evaluate_candidates(aggregate([(formula, 0.0)]), x, demo_regions).rows
        assert row.error is None
    assert fitting > 100 and exceeding > 20


@pytest.mark.parametrize("t, lo, hi", [(0, 0, 300), (2, 5, 300), (40, 0, 300)])
def test_until_reads_each_operand_step_once(monkeypatch, demo_regions, t, lo, hi):
    """U[lo,hi](!phi_a, phi_b) at t reads its left operand once at each step
    from t to the window's end and its right operand once per window step,
    in the order left(t), ..., left(t+lo), right(t+lo), left(t+lo+1), ...;
    the value agrees with the oracle.  Windows clipped at the walk's end
    (t = 40) stop both at the last step."""
    formula = Until(Interval(lo, hi), Not(Atom("a")), Atom("b"))
    x = random_trajectory(random.Random(7), min_len=301, max_len=301)
    reads = []
    rob = trajectory_module._rob

    def counting(f, signals, step, horizon):
        if f is formula.left or f is formula.right:
            reads.append(("left" if f is formula.left else "right", step))
        return rob(f, signals, step, horizon)

    monkeypatch.setattr(trajectory_module, "_rob", counting)
    value = robustness(formula, x, demo_regions, t)
    last = min(t + hi, x.horizon)
    expected = [("left", step) for step in range(t, t + lo)]
    for step in range(t + lo, last + 1):
        expected += [("left", step), ("right", step)]
    assert reads == expected
    points = [tuple(p) for p in x.states.tolist()]
    boxes = {name: (b.xmin, b.ymin, b.xmax, b.ymax) for name, b in demo_regions.boxes.items()}
    assert value == pytest.approx(brute_force_robustness(formula, points, boxes, t), abs=1e-12)


def test_a_candidate_set_evaluates_each_temporal_node_once_per_step(
    monkeypatch, lexicon, demo_regions
):
    """The 42 readings of five guarded tasks in sequence share their nested
    eventualities; over a 200-step walk no (node, step) is evaluated twice,
    and each atom's margins are taken once for the whole set.
    Re-evaluating each nested window at every step of its parent's took
    seconds here and more than a minute with six tasks."""
    candidate_set = translate(guarded_sentence(5, "and then"), lexicon)
    evaluations = count_evaluations(monkeypatch)
    margin_passes = []

    def counting_margins(box, points):
        margin_passes.append(box)
        return margins(box, points)

    monkeypatch.setattr(trajectory_module, "margins", counting_margins)
    report = evaluate_candidates(candidate_set, random_walk(200), demo_regions)
    assert len(report.rows) == 42 and all(row.error is None for row in report.rows)
    assert evaluations and max(evaluations.values()) == 1
    assert len(margin_passes) == 4  # one per atom: a, b, c and d


def test_one_call_evaluates_each_temporal_node_once_per_step(monkeypatch, lexicon, demo_regions):
    """A reading of five tasks in sequence nests five windows; alone, over
    a 1,001-step walk, each nested node is evaluated once per step."""
    candidate_set = translate(kstep_sentence(5), lexicon)
    nested = max((cand.formula for cand in candidate_set.candidates), key=temporal_depth)
    assert temporal_depth(nested) == 5
    evaluations = count_evaluations(monkeypatch)
    robustness(nested, random_walk(1001), demo_regions, 0)
    assert len({node for node, _ in evaluations}) >= 5
    assert max(evaluations.values()) == 1


@pytest.mark.parametrize("sentence", [
    "Within {} seconds, reach B or reach C while avoiding A.",
    "Reach B within {} seconds or reach C within {} seconds while avoiding A.",
])
def test_windows_over_temporal_free_operands_cost_the_same_at_every_length(
    monkeypatch, lexicon, demo_regions, sentence
):
    """Complexity contract: on S8- and S9-shaped sets whose windows span
    about the whole walk, each window reads its operand's list of values as
    one slice, so the ``_rob`` calls and the evaluations are as many at
    T = 10^2 as at 10^4, and each atom's margins are taken once."""
    evaluations = count_evaluations(monkeypatch)
    rob, calls, margin_passes = trajectory_module._rob, [], []

    def counting(f, signals, step, horizon):
        calls.append(f)
        return rob(f, signals, step, horizon)

    def counting_margins(box, points):
        margin_passes.append(box)
        return margins(box, points)

    monkeypatch.setattr(trajectory_module, "_rob", counting)
    monkeypatch.setattr(trajectory_module, "margins", counting_margins)
    work = []
    for length in (10**2, 10**3, 10**4):
        candidate_set = translate(sentence.format(length - 1, length - 2), lexicon)
        evaluations.clear()
        calls.clear()
        margin_passes.clear()
        report = evaluate_candidates(candidate_set, random_walk(length), demo_regions)
        assert all(row.error is None for row in report.rows)
        assert max(evaluations.values()) == 1
        assert len(margin_passes) == 3  # one per atom: a, b and c
        work.append((len(calls), sum(evaluations.values())))
    assert work[0] == work[1] == work[2], work


# Commands shaped like the benchmark's S8, S9, S10 and S12, with short windows.
MONITOR_SHAPED = (
    "Within 40 seconds, reach B or reach C while avoiding A.",
    "Reach B within 40 seconds or reach C within 38 seconds while avoiding A.",
    "Reach B within 6 seconds and then reach C within 7 seconds while avoiding A.",
    "Reach B within 6 seconds and then reach C within 7 seconds"
    " or reach D within 5 seconds while avoiding A.",
)


@pytest.fixture(scope="module")
def metamorphic_set(lexicon):
    """Monitor-shaped readings and those of guarded chains of two to four
    tasks, in one set: its extents run from 11 to 46."""
    guarded = [guarded_sentence(k, joiner) for k in (2, 3, 4) for joiner in ("and then", "or")]
    readings = [cand.formula for sentence in (*MONITOR_SHAPED, *guarded)
                for cand in translate(sentence, lexicon).candidates]
    return aggregate([(formula, 0.0) for formula in readings])


def test_scaling_walk_and_boxes_by_8_scales_every_value_by_8(metamorphic_set, demo_regions):
    """Metamorphic relation: a power-of-two scale is exact in floating
    point, so every robustness value scales bit for bit, signed zeros
    included, and every horizon-exceeded row stays one."""
    scaled_regions = RegionMap({name: Box(8 * b.xmin, 8 * b.ymin, 8 * b.xmax, 8 * b.ymax)
                                for name, b in demo_regions.boxes.items()})
    exceeded = 0
    for seed in range(1, 6):
        x = random_walk(45, seed)
        rows = evaluate_candidates(metamorphic_set, x, demo_regions).rows
        scaled_x = Trajectory(8 * x.states)
        scaled_rows = evaluate_candidates(metamorphic_set, scaled_x, scaled_regions).rows
        for row, scaled in zip(rows, scaled_rows, strict=True):
            assert scaled.error == row.error, row.formula
            exceeded += row.error is not None
            if row.error is None:
                assert repr(scaled.robustness) == repr(8 * row.robustness), row.formula
    assert exceeded > 0


def test_appending_states_past_the_extent_changes_no_value(metamorphic_set, demo_regions):
    """Metamorphic relation: the value at t reads no state past
    t + extent, so states appended after it change nothing, bit for bit.
    Over the whole walk, a report's margins reach past all but its longest
    candidates' extents; alone on the cut walk, a candidate's do not."""
    for seed in range(1, 6):
        x = random_walk(80, seed)
        rows = evaluate_candidates(metamorphic_set, x, demo_regions).rows
        for cand, row in zip(metamorphic_set.candidates, rows, strict=True):
            later = robustness(cand.formula, x, demo_regions, 3)
            for t, value in [(0, row.robustness), (3, later)]:
                cut = Trajectory(x.states[:t + extent(cand.formula) + 1])
                alone = robustness(cand.formula, cut, demo_regions, t)
                assert repr(alone) == repr(value), cand.text


def test_shifting_the_walk_by_t_moves_each_value_at_t_to_0(metamorphic_set, demo_regions):
    """Metamorphic relation: where t + extent <= horizon, the value at t
    reads only the states t .. t + extent, so it is the value at 0 of the
    walk that starts at t, bit for bit.  The walk is as long as the
    longest candidate needs at t = 7, so that one reads its last state."""
    formulas = [cand.formula for cand in metamorphic_set.candidates]
    checked = 0
    for seed in range(1, 4):
        x = random_walk(7 + max(map(extent, formulas)) + 1, seed)
        for t in (1, 3, 7):
            shifted = Trajectory(x.states[t:])
            for formula in formulas:
                if t + extent(formula) <= x.horizon:
                    value = robustness(formula, x, demo_regions, t)
                    assert repr(robustness(formula, shifted, demo_regions, 0)) == repr(value)
                    checked += 1
    assert checked == 3 * 3 * len(formulas)


def test_signed_zeros_match_the_oracle_on_box_corners(demo_regions):
    """A walk over the demo boxes' corners puts zero margins in every
    window, of both signs once negated.  Each window over a temporal-free
    operand keeps the zero the per-step recursion keeps: the builtin max
    and min return the first of equal values, where numpy's make no
    promise."""
    rng = random.Random(31)
    corners = sorted({(b[i], b[j]) for b in DEMO_BOXES.values() for i in (0, 2) for j in (1, 3)})
    points = [rng.choice(corners) for _ in range(41)]
    x = Trajectory(np.array(points))
    texts = ["F[0,30](phi_b | phi_c)", "G[0,30] !phi_a", "F[0,30](phi_b & !phi_a)",
             "G[0,20](!phi_a | !phi_b)", "F[0,30](phi_b | (!phi_a & phi_a))",
             "G[0,30](!phi_b & (phi_a | !phi_a))"]
    values = []
    for text in texts:
        formula = parse_formula(text)
        for t in range(10):
            value = robustness(formula, x, demo_regions, t)
            assert repr(value) == repr(brute_force_robustness(formula, points, DEMO_BOXES, t)), text
            values.append(repr(value))
    assert values.count("0.0") >= 10 and values.count("-0.0") >= 10


DEMO_DATA = REPO / "demos" / "data"


@pytest.mark.parametrize("csv", ["traj_detour.csv", "traj_through_a.csv"])
def test_report_rows_are_calls_alone_on_the_corpus(lexicon, corpus, csv):
    """Sharing margins and temporal values across a set changes no value."""
    regions = load_regions((DEMO_DATA / "regions.txt").read_text(encoding="utf-8"))
    x = load_trajectory((DEMO_DATA / csv).read_text(encoding="utf-8"))
    for sentence in corpus.values():
        assert_rows_are_calls_alone(translate(sentence, lexicon), x, regions)


def test_consecutive_reports_share_no_value(lexicon, demo_regions):
    """What one call keeps is dropped on return: each call, on another walk
    or on moved regions, agrees with the oracle."""
    candidate_set = translate(guarded_sentence(3, "and then"), lexicon)
    moved = RegionMap({name: Box(b.xmin + 0.5, b.ymin, b.xmax + 0.5, b.ymax)
                       for name, b in demo_regions.boxes.items()})
    for x, regions in [(random_walk(100, seed=1), demo_regions),
                       (random_walk(100, seed=2), demo_regions), (random_walk(100, seed=2), moved)]:
        report = evaluate_candidates(candidate_set, x, regions)
        points = x.states.tolist()
        boxes = {name: (b.xmin, b.ymin, b.xmax, b.ymax) for name, b in regions.boxes.items()}
        for cand, row in zip(candidate_set.candidates, report.rows, strict=True):
            want = brute_force_robustness(cand.formula, points, boxes, 0)
            assert row.robustness == pytest.approx(want, abs=1e-12), cand.text
    assert trajectory_module._SHARED.get() is None


def test_unknown_atom_aborts(lexicon):
    regions = RegionMap({"q": Box(0.0, 0.0, 1.0, 1.0)})
    candidate_set = translate("Reach B within 10 seconds.", lexicon)
    x = Trajectory(np.array([(0.0, 0.0)] * 11))
    with pytest.raises(UnknownAtomError, match="b"):
        evaluate_candidates(candidate_set, x, regions)


def test_satisfied_flag_matches_sign(lexicon, demo_regions, through_a_trajectory):
    candidate_set = translate(
        "Within 10 seconds, reach B or reach C while avoiding A.", lexicon
    )
    report = evaluate_candidates(candidate_set, through_a_trajectory, demo_regions)
    for row in report.rows:
        assert row.satisfied == (row.robustness > 0)


def _translated(x: Trajectory, regions: RegionMap, dx: float, dy: float):
    """The trajectory and the regions, both shifted by (dx, dy)."""
    boxes = {
        name: Box(b.xmin + dx, b.ymin + dy, b.xmax + dx, b.ymax + dy)
        for name, b in regions.boxes.items()
    }
    return Trajectory(x.states + np.array([dx, dy])), RegionMap(boxes)


def test_translation_invariance(lexicon, demo_regions, through_a_trajectory):
    candidate_set = translate(
        "Within 10 seconds, reach B or reach C while avoiding A.", lexicon
    )
    base = evaluate_candidates(candidate_set, through_a_trajectory, demo_regions)
    shifted = evaluate_candidates(
        candidate_set, *_translated(through_a_trajectory, demo_regions, 3.25, -1.5)
    )
    for row_a, row_b in zip(base.rows, shifted.rows):
        assert row_a.robustness == pytest.approx(row_b.robustness, abs=1e-12)


def test_report_table_and_dict(lexicon, demo_regions, through_a_trajectory):
    candidate_set = translate("Reach B within 10 seconds.", lexicon)
    report = evaluate_candidates(candidate_set, through_a_trajectory, demo_regions)
    table = report.format_table()
    assert "formula" in table and "F[0,10] phi_b" in table
    payload = report.to_dict()
    assert payload["candidates"][0]["satisfied"] is True
    assert set(payload) == {"sentence", "candidates"}
    assert set(payload["candidates"][0]) == {
        "formula", "probability", "robustness", "satisfied", "error"
    }
