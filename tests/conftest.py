from __future__ import annotations

import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

from ambistl.lexicon import format_lexicon, load_default_lexicon, load_lexicon
from ambistl.stl import And, Atom, F, Formula, G, Interval, Not, Or, TrueF, Until
from ambistl.regions import Box, RegionMap
from ambistl.text import lines
from ambistl.trajectory import Trajectory

# Property tests draw a fixed, derandomized set of examples, so tier-1 runs
# the same inputs every time; ``pytest --hypothesis-profile long`` draws
# more, at random.
settings.register_profile("default", derandomize=True, max_examples=100)
settings.register_profile("long", derandomize=False, max_examples=2000)


def run_python(args: list[str], timeout: float | None = None, **env: str):
    """``python *args`` in a fresh interpreter at the repository root, with
    this checkout's ``src`` first on the import path and ``env`` added to
    the environment; stdout and stderr are captured as bytes."""
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True, timeout=timeout,
    )


def kstep_sentence(k: int, bounds: tuple[int, ...] = ()) -> str:
    """'reach X within N seconds and then ... while avoiding A' with k tasks;
    task i is bounded by ``bounds[i % len(bounds)]`` seconds, or by 10 + i."""
    seconds = [bounds[i % len(bounds)] if bounds else 10 + i for i in range(k)]
    tasks = " and then ".join(f"reach {'BCD'[i % 3]} within {seconds[i]} seconds" for i in range(k))
    return f"{tasks} while avoiding A."


def guarded_sentence(k: int, joiner: str) -> str:
    """'reach X within N seconds while avoiding A' k times, joined by
    ``joiner`` ('and then' or 'or'); its readings are Catalan-many."""
    task = "reach {} within {} seconds while avoiding A"
    return f" {joiner} ".join(task.format("BCD"[i % 3], 10 + i) for i in range(k)) + "."


_SHARING_WHILE = "lam q. lam p. lam i. AND(p(i), q(i))"
# Entries added to the bundled lexicon by :func:`custom_lexicon`, by name.
CUSTOM_ENTRIES = {
    # The interval-sharing while under categories that hide that its
    # template still takes an interval: its derivations are ill-formed.
    "(S\\S)/T": f"while | (S\\S)/T | 0.0 | {_SHARING_WHILE}\n",
    "(S\\S)/S": f"while | (S\\S)/S | 0.0 | {_SHARING_WHILE}\n",
    # A second reach with the bundled template and another weight: its
    # meanings equal the first reach's without being the same derivations.
    "reach-twice": "reach | T/NP | -0.5 | lam x. lam i. F(i, x)\n",
    # A closed while, and one that applies its converted left argument as a
    # function, a stuck application.
    "apply-converted": (
        "while | (S\\S)/S | 0.0 | lam q. lam p. AND(p, q)\n"
        "while | (S\\S)/S | -0.5 | lam q. lam p. AND(p(I(0, 5)), q)\n"
    ),
}


def custom_lexicon(lexicon, name: str):
    """The bundled ``lexicon`` plus the entries ``CUSTOM_ENTRIES[name]``."""
    return load_lexicon(format_lexicon(lexicon) + CUSTOM_ENTRIES[name])


@pytest.fixture(scope="session")
def lexicon():
    return load_default_lexicon()


@pytest.fixture(scope="session")
def corpus() -> dict[str, str]:
    text = resources.files("ambistl.data").joinpath("corpus.tsv").read_text(encoding="utf-8")
    rows = {}
    for line in lines(text):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sid, _, sentence = line.partition("\t")
        rows[sid] = sentence
    return rows


# Demo geometry shared by robustness tests: four rooms around the origin,
# the A-room sits between the start and the B-room.
DEMO_BOXES = {
    "a": (2.0, 0.0, 4.0, 2.0),
    "b": (6.0, 0.0, 8.0, 2.0),
    "c": (6.0, 6.0, 8.0, 8.0),
    "d": (0.0, 6.0, 2.0, 8.0),
}


@pytest.fixture(scope="session")
def demo_regions() -> RegionMap:
    return RegionMap({name: Box(*coords) for name, coords in DEMO_BOXES.items()})


@pytest.fixture(scope="session")
def through_a_trajectory() -> Trajectory:
    """Straight run through region A into region B, 11 steps."""
    return Trajectory(np.array([(0.8 * t, 1.0) for t in range(11)]))


def random_formula(rng: random.Random, depth: int) -> Formula:
    """Random formula over the demo atoms with interval bounds <= 2."""
    atoms = ["a", "b", "c", "d"]
    if depth == 0:
        return TrueF() if rng.random() < 0.1 else Atom(rng.choice(atoms))
    kind = rng.choice(["atom", "not", "and", "or", "F", "G", "until"])
    if kind == "atom":
        return Atom(rng.choice(atoms))
    if kind == "not":
        return Not(random_formula(rng, depth - 1))
    if kind in ("and", "or"):
        children = tuple(random_formula(rng, depth - 1) for _ in range(rng.choice([2, 2, 3])))
        return And(children) if kind == "and" else Or(children)
    lo = rng.randint(0, 2)
    hi = rng.randint(lo, 2)
    interval = Interval(lo, hi)
    if kind == "F":
        return F(interval, random_formula(rng, depth - 1))
    if kind == "G":
        return G(interval, random_formula(rng, depth - 1))
    return Until(interval, random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def random_trajectory(rng: random.Random, min_len: int = 7, max_len: int = 10) -> Trajectory:
    length = rng.randint(min_len, max_len)
    pts = [(rng.uniform(-1.0, 9.0), rng.uniform(-1.0, 9.0)) for _ in range(length)]
    return Trajectory(np.array(pts))
