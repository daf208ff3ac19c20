import io
import random

import numpy as np
import pytest

from ambistl.pipeline import aggregate, translate
from ambistl.stl import UnknownAtomError, extent, robustness
from ambistl.trajectory import (
    Box,
    RegionFileError,
    RegionMap,
    Trajectory,
    TrajectoryFileError,
    evaluate_candidates,
    load_regions,
    load_trajectory,
)

from conftest import random_formula, random_trajectory
from loader_oracle import reference_load_trajectory
from oracle import brute_force_robustness
from reference_formulas import S8_GLOBAL, S8_LOCAL


# --- margins -------------------------------------------------------------------

UNIT_BOX = Box(0.0, 0.0, 1.0, 1.0)


def test_margin_inside_center():
    assert UNIT_BOX.margin((0.5, 0.5)) == 0.5


def test_margin_outside():
    assert UNIT_BOX.margin((2.0, 0.5)) == -1.0


def test_margin_on_boundary():
    assert UNIT_BOX.margin((1.0, 0.5)) == 0.0


def test_margins_equal_the_builtin_min_over_faces():
    """Box.margins and Box.margin equal min() over the four face distances
    in the order left, right, bottom, top, down to the sign of a zero where
    two faces meet."""
    box = Box(0.0, -1.0, 2.0, 0.0)
    coords = [-0.0, 0.0, 0.5, 1.0, 2.0, -1.0, 3.0]
    points = [(px, py) for px in coords for py in coords]
    expected = [
        repr(min(px - box.xmin, box.xmax - px, py - box.ymin, box.ymax - py)) for px, py in points
    ]
    assert [repr(m) for m in box.margins(np.array(points)).tolist()] == expected
    assert [repr(box.margin(p)) for p in points] == expected


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


LOADER_CASES = {
    "plain": "t,x,y\n0,0,0\n1,1.5,-2\n2,3e2,4\n",
    "quoted fields": '"t","x","y"\n"0","1.5"," 2"\n1,"3",4\n',
    "quoted comma": 't,x,y\n0,0,0\n1,"3,5",4\n',
    "whitespace-only and comma-only rows": "t,x,y\n0,0,0\n   \n,,\n , ,\t\n1,1,1\n,\n",
    "signed and padded t": "t,x,y\n 0,0,0\n+1,1,1\n 2 ,2,2\n",
    "padded t out of order": "t,x,y\n0,0,0\n 7,1,1\n",
    "t with other whitespace": "t,x,y\n\x1f0\xa0,0,0\n1,1,1\n",
    "crlf": "t,x,y\r\n0,1,2\r\n1,3,4\r\n",
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
    except TrajectoryFileError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(LOADER_CASES))
def test_load_trajectory_matches_row_loop_reference(name, tmp_path):
    """Equal arrays or the identical error text, from a str, a text stream
    and a file opened as the CLI opens it."""
    text = LOADER_CASES[name]
    path = tmp_path / "trajectory.csv"
    path.write_text(text, encoding="utf-8", newline="")
    outcomes = []
    for loader in (load_trajectory, reference_load_trajectory):
        with open(path, encoding="utf-8", newline="") as handle:
            outcomes.append([_load_outcome(loader, src) for src in (text, io.StringIO(text), handle)])
    for got, want in zip(*outcomes):
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)
            assert got.dtype == want.dtype and got.shape == want.shape


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
