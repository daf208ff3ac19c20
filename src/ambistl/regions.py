"""Grounding of atoms in 2-D regions.

Regions are axis-aligned boxes named after the atoms they ground.  The
signed margin of a point with respect to a box is the smallest distance to
any face, positive inside, zero on the boundary and negative outside, so an
atom holds at a state exactly when its margin is positive.

This module does not import numpy, so translating a sentence and reading a
regions file never load it; :meth:`Box.margins` works on the arrays that
:mod:`ambistl.trajectory` builds.  A regions file is broken into lines by
:func:`ambistl.text.lines`, as every line-based file of the package is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .text import TextSource, lines

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class RegionFileError(ValueError):
    """The regions file is malformed."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with nonempty interior."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.xmin, self.ymin, self.xmax, self.ymax))):
            raise ValueError("non-finite coordinate")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(
                f"degenerate box [{self.xmin},{self.xmax}]x[{self.ymin},{self.ymax}]"
            )

    def margins(self, points: np.ndarray) -> np.ndarray:
        """Signed distance of each row of an (N, 2) array to the nearest face;
        positive strictly inside."""
        # Local: the caller already holds a numpy array, so numpy is loaded.
        import numpy as np

        px, py = points[:, 0], points[:, 1]
        # np.minimum keeps its second argument on a tie, so passing the faces
        # in reverse keeps the first of two equal zeros, as the builtin min does.
        m = np.minimum(self.xmax - px, px - self.xmin)
        return np.minimum(self.ymax - py, np.minimum(py - self.ymin, m))


@dataclass(frozen=True)
class RegionMap:
    """Mapping from atom names to their grounding boxes."""

    boxes: dict[str, Box]

    def names(self) -> set[str]:
        return set(self.boxes)

    def __contains__(self, name: str) -> bool:
        return name in self.boxes


def load_regions(source: TextSource) -> RegionMap:
    """Read a regions file: one ``name: xmin ymin xmax ymax`` per line.

    Blank lines and ``#`` comments are ignored.  Raises
    :class:`RegionFileError` on malformed lines, non-finite or degenerate
    boxes, or duplicate names.
    """
    boxes: dict[str, Box] = {}
    for lineno, raw in enumerate(lines(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise RegionFileError(f"line {lineno}: expected 'name: xmin ymin xmax ymax'")
        name, _, rest = line.partition(":")
        name = name.strip()
        parts = rest.split()
        if not name or len(parts) != 4:
            raise RegionFileError(f"line {lineno}: expected 'name: xmin ymin xmax ymax'")
        try:
            xmin, ymin, xmax, ymax = (float(p) for p in parts)
        except ValueError:
            raise RegionFileError(f"line {lineno}: non-numeric coordinate") from None
        if name in boxes:
            raise RegionFileError(f"line {lineno}: duplicate region '{name}'")
        try:
            boxes[name] = Box(xmin, ymin, xmax, ymax)
        except ValueError as exc:
            raise RegionFileError(f"line {lineno}: {exc}") from None
    if not boxes:
        raise RegionFileError("empty regions file")
    return RegionMap(boxes)
