"""The entry points a user runs, each in a fresh interpreter: the demos,
the Catalan-sized guarded chain through ``translate`` and ``eval``, and
``eval`` on the demo trajectories with either line ending."""

import json

import pytest

from conftest import REPO, guarded_sentence, random_walk, run_python

DEMOS = sorted((REPO / "demos").glob("*.py"))
DEMO_TRAJECTORIES = sorted((REPO / "demos" / "data").glob("traj_*.csv"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_its_expected_output(demo):
    """After a deliberate change to what a demo prints, regenerate its
    demos/expected/ file (README, "Demos")."""
    done = run_python([str(demo)])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (REPO / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()


@pytest.mark.parametrize("joiner", ["or", "and then"])
def test_guarded_chain_of_eight_translates_in_bounded_time(joiner):
    """1,430 readings (the eighth Catalan number), within a minute. Composing
    over converted formulas takes seconds; re-composing every finished
    formula in every mother took minutes."""
    done = run_python(["-m", "ambistl.cli", "translate", guarded_sentence(8, joiner)], timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert len(done.stdout.splitlines()) == 1430


def test_guarded_sequence_of_six_evaluates_in_bounded_time(tmp_path):
    """132 readings of six guarded tasks in sequence on a 200-step walk,
    within a minute. Each nested eventuality is evaluated once per step;
    re-evaluating it at every step of its parent's window took more than a
    minute."""
    csv = tmp_path / "walk.csv"
    rows = (f"{t},{x!r},{y!r}\n" for t, (x, y) in enumerate(random_walk(200).states.tolist()))
    csv.write_text("t,x,y\n" + "".join(rows), encoding="utf-8")
    done = run_python([
        "-m", "ambistl.cli", "eval", "--format", "json", guarded_sentence(6, "and then"),
        "--regions", "demos/data/regions.txt", "--trajectory", str(csv),
    ], timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    candidates = json.loads(done.stdout)["candidates"]
    assert len(candidates) == 132
    assert all(row["error"] is None for row in candidates)


@pytest.mark.parametrize("csv", DEMO_TRAJECTORIES, ids=[csv.stem for csv in DEMO_TRAJECTORIES])
def test_eval_reads_crlf_as_lf(csv, tmp_path):
    """The LF file takes numpy's C parser, its CRLF copy the CSV row loop;
    both print the same report."""
    crlf = tmp_path / f"{csv.stem}_crlf.csv"
    crlf.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n"))
    outputs = []
    for path in (csv, crlf):
        done = run_python([
            "-m", "ambistl.cli", "eval", "--format", "json",
            "Within 10 seconds, reach B or reach C while avoiding A.",
            "--regions", "demos/data/regions.txt", "--trajectory", str(path),
        ])
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
