"""The benchmark's references agree with the hand-built corpus references."""

import sys
from pathlib import Path

import pytest
from reference_formulas import REFERENCE

from ambistl import load_default_lexicon, translate
from checks import canonical_key, kstep_readings, read_expectations
from inputs import EXPECTATIONS_TSV, generate

ROOT = Path(__file__).resolve().parents[2]


def test_canonical_key_renders_expectations_from_hand_built_formulas():
    expected = read_expectations(ROOT / EXPECTATIONS_TSV)
    for sid, readings in REFERENCE.items():
        assert {canonical_key(f) for f in readings} == expected[sid], sid


def test_kstep_generator_reproduces_s10_and_s11():
    assert set(kstep_readings(("b", "c"), (10, 15))) == set(REFERENCE["S10"])
    assert set(kstep_readings(("b", "c", "d"), (10, 15, 5))) == set(REFERENCE["S11"])


@pytest.mark.parametrize("k", [4, 5])
def test_kstep_generator_equals_exhaustive_translation(k):
    step = next(s for s in generate("kstep", 1, ROOT).ksteps if len(s.regions) == k)
    exhaustive = translate(step.sentence, load_default_lexicon(), n=sys.maxsize)
    assert {canonical_key(c.formula) for c in exhaustive.candidates} == {
        canonical_key(f) for f in kstep_readings(step.regions, step.bounds)
    }
