"""Seeded input generation for the benchmark workloads.

Everything a workload feeds to ``ambistl`` is made here from the seed and
the repository's data files, before any timing starts.  The program under
test never sees the seed, only the sentences, arrays and CSV texts built
from it.  Bounds are drawn from narrow ranges so that the cost of an
operation barely depends on the seed: a claim measured on one seed must
hold on another.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CORPUS_TSV = Path("src/ambistl/data/corpus.tsv")
EXPECTATIONS_TSV = Path("src/ambistl/data/expectations.tsv")
REGIONS_TXT = Path("demos/data/regions.txt")

KSTEP_RANGE = range(2, 7)  # k=7 takes seconds per call; the defect already shows at k=5, 6
KSTEP_REGIONS = ("b", "c", "d")
KSTEP_BOUNDS = (5, 30)
MONITOR_LENGTHS = (10**2, 10**3, 10**4)
MONITOR_SHAPES = ("S8", "S9", "S10", "S12")
EVAL_LENGTH = 10**4
WALK_START = (4.0, 4.0)
WALK_STEP = 0.3


@dataclass(frozen=True)
class KStep:
    """One k-step command: regions and bounds of its tasks, in order."""

    regions: tuple[str, ...]
    bounds: tuple[int, ...]

    @property
    def sentence(self) -> str:
        tasks = [f"reach {r.upper()} within {n} seconds" for r, n in zip(self.regions, self.bounds)]
        text = " and then ".join(tasks) + " while avoiding A."
        return text[0].upper() + text[1:]


@dataclass(frozen=True)
class Pair:
    """A sentence with the trajectory it is evaluated on.

    ``states`` is the (N, 2) array; ``csv_text`` is the same trajectory as
    ``t,x,y`` text for workloads that load it, in which case ``states``
    holds the values the text denotes.
    """

    label: str
    sentence: str
    states: np.ndarray
    csv_text: str = ""


@dataclass
class Inputs:
    """Everything one workload needs, made from the seed."""

    workload: str
    seed: int
    regions_text: str
    sentences: list[tuple[str, str]] = field(default_factory=list)  # (label, sentence)
    ksteps: list[KStep] = field(default_factory=list)
    pairs: list[Pair] = field(default_factory=list)

    def setup_sentences(self) -> list[str]:
        """Sentences translated during set-up rather than in the timed loop."""
        return [p.sentence for p in self.pairs] if self.workload == "monitor" else []


def read_corpus(root: Path) -> list[tuple[str, str]]:
    rows = []
    for line in (root / CORPUS_TSV).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            sid, _, sentence = line.partition("\t")
            rows.append((sid.strip(), sentence.strip()))
    return rows


def random_walk(rng: np.random.Generator, length: int) -> np.ndarray:
    steps = rng.normal(0.0, WALK_STEP, size=(length, 2))
    steps[0] = WALK_START
    return np.cumsum(steps, axis=0)


def to_csv(states: np.ndarray) -> tuple[str, np.ndarray]:
    """``t,x,y`` text with six decimals, and the values that text denotes."""
    lines = ["t,x,y"]
    values = []
    for t, (x, y) in enumerate(states.tolist()):
        xs, ys = f"{x:.6f}", f"{y:.6f}"
        lines.append(f"{t},{xs},{ys}")
        values.append((float(xs), float(ys)))
    return "\n".join(lines) + "\n", np.array(values)


def _near(rng: random.Random, target: float, share: float) -> int:
    """An integer bound in [target * (1 - share), target]."""
    return rng.randint(math.ceil(target * (1 - share)), math.floor(target))


def monitor_sentence(shape: str, length: int, rng: random.Random) -> str:
    """A command shaped like corpus sentence ``shape`` whose nested window
    lengths multiply to about ``length``; its horizon fits the trajectory."""

    def flat() -> int:
        return _near(rng, length - 1, 0.025)

    def nested() -> int:
        return _near(rng, math.sqrt(length), 0.05)

    if shape == "S8":
        return f"Within {flat()} seconds, reach B or reach C while avoiding A."
    if shape == "S9":
        return f"Reach B within {flat()} seconds or reach C within {flat()} seconds while avoiding A."
    if shape == "S10":
        return (
            f"Reach B within {nested()} seconds and then reach C within {nested()} seconds"
            " while avoiding A."
        )
    if shape == "S12":
        return (
            f"Reach B within {nested()} seconds and then reach C within {nested()} seconds"
            f" or reach D within {nested()} seconds while avoiding A."
        )
    raise ValueError(f"unknown shape {shape}")


def generate(workload: str, seed: int, root: Path) -> Inputs:
    """Build the inputs of ``workload`` for ``seed``; same seed, same bytes."""
    rng = random.Random(f"{workload}/{seed}")
    inputs = Inputs(workload, seed, (root / REGIONS_TXT).read_text(encoding="utf-8"))
    if workload == "corpus":
        inputs.sentences = read_corpus(root)
        rng.shuffle(inputs.sentences)
    elif workload == "kstep":
        for k in KSTEP_RANGE:
            regions = [rng.choice(KSTEP_REGIONS)]
            while len(regions) < k:
                regions.append(rng.choice([r for r in KSTEP_REGIONS if r != regions[-1]]))
            bounds = tuple(rng.randint(*KSTEP_BOUNDS) for _ in range(k))
            inputs.ksteps.append(KStep(tuple(regions), bounds))
    elif workload == "monitor":
        walk_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        for length in MONITOR_LENGTHS:
            states = random_walk(walk_rng, length)
            for shape in MONITOR_SHAPES:
                sentence = monitor_sentence(shape, length, rng)
                inputs.pairs.append(Pair(f"{shape}@T={length}", sentence, states))
    elif workload == "eval":
        walk_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        corpus = read_corpus(root)
        rng.shuffle(corpus)
        for sid, sentence in corpus:
            csv_text, states = to_csv(random_walk(walk_rng, EVAL_LENGTH))
            inputs.pairs.append(Pair(sid, sentence, states, csv_text))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
