"""The seeded input generator is a pure function of workload and seed."""

from pathlib import Path

import pytest

from inputs import MONITOR_LENGTHS, generate

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("corpus", "kstep", "monitor", "eval")


def fingerprint(inputs) -> bytes:
    """Byte serialisation of every generated input."""
    parts = [inputs.workload, str(inputs.seed), inputs.regions_text]
    parts += [f"{label}\t{sentence}" for label, sentence in inputs.sentences]
    parts += [f"{step.regions}{step.bounds}" for step in inputs.ksteps]
    for pair in inputs.pairs:
        parts += [pair.label, pair.sentence, pair.csv_text, pair.states.tobytes().hex()]
    return "\n".join(parts).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    first = fingerprint(generate(workload, 7, ROOT))
    assert fingerprint(generate(workload, 7, ROOT)) == first
    assert fingerprint(generate(workload, 8, ROOT)) != first


def test_kstep_regions_alternate_and_cover_k_2_to_6():
    steps = generate("kstep", 3, ROOT).ksteps
    assert [len(s.regions) for s in steps] == [2, 3, 4, 5, 6]
    for step in steps:
        assert all(a != b for a, b in zip(step.regions, step.regions[1:]))


def test_monitor_bounds_stay_in_narrow_ranges():
    for seed in range(20):
        for pair in generate("monitor", seed, ROOT).pairs:
            length = len(pair.states)
            assert length in MONITOR_LENGTHS
            bounds = [int(w) for w in pair.sentence.replace(",", " ").split() if w.isdigit()]
            flat = pair.label.startswith(("S8@", "S9@"))
            low, high = (0.975 * (length - 1), length - 1) if flat else (0.95 * length**0.5, length**0.5)
            assert all(low <= b <= high for b in bounds), (pair.sentence, low, high)


def test_eval_csv_denotes_its_states():
    pair = generate("eval", 5, ROOT).pairs[0]
    rows = pair.csv_text.splitlines()
    assert rows[0] == "t,x,y" and len(rows) - 1 == len(pair.states)
    t, x, y = rows[-1].split(",")
    assert int(t) == len(pair.states) - 1
    assert (float(x), float(y)) == tuple(pair.states[-1])
