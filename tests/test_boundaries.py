"""The numpy boundary, checked by structure: the formula and region modules
hold no evaluation code, so they import neither numpy nor the numeric layer
(:mod:`ambistl.trajectory`), not even under ``TYPE_CHECKING``.
``tests/test_footprint.py`` checks the same boundary by running the
translate path in a fresh interpreter."""

import ast

import pytest

import ambistl

from conftest import REPO

# Modules that load numpy, and the package names that resolve to them.
NUMERIC = {"numpy", "ambistl.trajectory"} | {f"ambistl.{name}" for name in ambistl._TRAJECTORY_NAMES}


def numeric_imports(source: str) -> list[str]:
    """Every name an import statement anywhere in ``source`` (a module of the
    ``ambistl`` package) takes from numpy or the numeric layer, as a
    dotted path with relative imports resolved."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["ambistl" if node.level else "", node.module]))
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return [name for name in names if any(name == bad or name.startswith(bad + ".") for bad in NUMERIC)]


@pytest.mark.parametrize("module", ["stl", "regions"])
def test_formula_and_region_modules_import_no_numeric_code(module):
    source = (REPO / "src" / "ambistl" / f"{module}.py").read_text(encoding="utf-8")
    assert numeric_imports(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np",
        "import numpy.linalg",
        "from numpy import minimum",
        "from .trajectory import robustness",
        "from . import trajectory",
        "from ambistl import robustness",
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np",
        "def margins(points):\n    import numpy as np\n    return np.minimum(points, 0)",
    ],
)
def test_checker_finds_a_numeric_import_anywhere(source):
    assert numeric_imports(source)


@pytest.mark.parametrize("source", ["import numbers", "from .text import scan", "import numpyish"])
def test_checker_passes_other_imports(source):
    assert numeric_imports(source) == []
