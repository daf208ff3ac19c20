"""Ambiguity-preserving translation of navigation commands into ranked STL
candidates, with quantitative robustness evaluation on 2-D trajectories.

Importing the package loads the numpy-free modules only: translation,
formulas and regions.  The names of the numeric layer (``Trajectory``,
``load_trajectory``, ``robustness``, ``evaluate_candidates``,
``RobustnessReport``) are resolved from :mod:`ambistl.trajectory` on first
access, and that first access is what loads numpy.
"""

from .lexicon import (
    LexEntry,
    Lexicon,
    format_lexicon,
    load_default_lexicon,
    load_lexicon,
    lookup,
    validate_lexicon,
)
from .parser import Derivation, parse_nbest, tokenize
from .pipeline import (
    Candidate,
    CandidateSet,
    EmptyCandidateSetError,
    IllFormedMeaningError,
    aggregate,
    analyze,
    compose,
    to_stl,
    translate,
)
from .semantics import Term, beta_reduce, parse_term
from .stl import (
    And,
    Atom,
    EmptyWindowError,
    F,
    Formula,
    G,
    Interval,
    Not,
    Or,
    TrueF,
    UnknownAtomError,
    Until,
    atoms_of,
    canonicalize,
    extent,
    format_formula,
    parse_formula,
)
from .regions import Box, RegionMap, load_regions

__version__ = "0.1.0"

__all__ = [
    "And",
    "Atom",
    "Box",
    "Candidate",
    "CandidateSet",
    "Derivation",
    "EmptyCandidateSetError",
    "EmptyWindowError",
    "F",
    "Formula",
    "G",
    "IllFormedMeaningError",
    "Interval",
    "LexEntry",
    "Lexicon",
    "Not",
    "Or",
    "RegionMap",
    "RobustnessReport",
    "Term",
    "Trajectory",
    "TrueF",
    "UnknownAtomError",
    "Until",
    "aggregate",
    "analyze",
    "atoms_of",
    "beta_reduce",
    "canonicalize",
    "compose",
    "evaluate_candidates",
    "extent",
    "format_formula",
    "format_lexicon",
    "load_default_lexicon",
    "load_lexicon",
    "load_regions",
    "load_trajectory",
    "lookup",
    "parse_formula",
    "parse_nbest",
    "parse_term",
    "robustness",
    "to_stl",
    "tokenize",
    "translate",
    "validate_lexicon",
]

_TRAJECTORY_NAMES = frozenset(
    {"RobustnessReport", "Trajectory", "evaluate_candidates", "load_trajectory", "robustness"}
)


def __getattr__(name: str):
    if name not in _TRAJECTORY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import trajectory

    value = globals()[name] = getattr(trajectory, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _TRAJECTORY_NAMES)
