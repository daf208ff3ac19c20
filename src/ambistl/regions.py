"""Grounding of atoms in 2-D regions.

Regions are axis-aligned boxes named after the atoms they ground.  The
signed margin of a point with respect to a box is the smallest distance to
any face, positive inside, zero on the boundary and negative outside, so an
atom holds at a state exactly when its margin is positive.

This module holds no evaluation code and does not import numpy, so reading
a regions file never loads it; :func:`ambistl.trajectory.margins` takes the
margins.  A regions file is broken into lines by :func:`ambistl.text.lines`,
as every line-based file of the package is.
"""

from __future__ import annotations

import math

from .record import Record
from .text import TextSource, lines


class RegionFileError(ValueError):
    """The regions file is malformed."""


class Box(Record):
    """Axis-aligned rectangle with nonempty interior."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float) -> None:
        if not all(map(math.isfinite, (xmin, ymin, xmax, ymax))):
            raise ValueError("non-finite coordinate")
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"degenerate box [{xmin},{xmax}]x[{ymin},{ymax}]")
        object.__setattr__(self, "xmin", xmin)
        object.__setattr__(self, "ymin", ymin)
        object.__setattr__(self, "xmax", xmax)
        object.__setattr__(self, "ymax", ymax)


class RegionMap(Record):
    """Mapping from atom names to their grounding boxes."""

    __slots__ = ("boxes",)

    def __init__(self, boxes: dict[str, Box]) -> None:
        object.__setattr__(self, "boxes", boxes)

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
