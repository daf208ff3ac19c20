"""Discrete-time STL formulas: syntax tree, canonical form, horizon, reader.

Formulas are immutable trees built from True, atoms, boolean connectives and
the bounded temporal operators F (eventually), G (always) and U (until).
Atoms are named propositions.  The module holds no evaluation code and
imports no numpy, so the translation path and the command line use its
formulas and its :class:`StlError` family without loading numpy; robustness
on a trajectory is :func:`ambistl.trajectory.robustness`.

Every rendering is built by one node renderer, ``_text``: the text of
:func:`format_formula` and the canonical rendering.  The canonical
constructors (:func:`canonical_not`, :func:`canonical_junction`,
:func:`canonical_temporal`) build a node over canonical children and keep
its rendering and extent; :func:`canonical_form` folds any formula through
them.  Within a :func:`sharing` call they are hash-consed: a node is built
once per kind, interval and children, while equality stays structural.
The canonical rendering is the one formula key: the translation pipeline
packs meanings and deduplicates candidates by it, to the byte.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import wraps
from operator import attrgetter
from typing import Callable, Iterable

from .record import Record
from .text import scan


class StlError(Exception):
    """Base class for formula-evaluation errors."""


class UnknownAtomError(StlError):
    """An atom in the formula has no region grounding it."""


class EmptyWindowError(StlError):
    """A temporal window lies entirely beyond the end of the trajectory."""


class FormulaSyntaxError(StlError):
    """The canonical text rendering could not be parsed back."""


class FormulaDepthError(StlError):
    """A formula is nested deeper than the interpreter's recursion limit."""


_TOO_DEEP = "formula nested deeper than the recursion limit"


class Interval(Record):
    """Discrete time interval [lo, hi] in steps, 0 <= lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        for bound in (lo, hi):
            if isinstance(bound, bool) or not isinstance(bound, int):
                raise ValueError("interval bounds must be integers")
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid interval [{lo},{hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


class Formula(Record):
    """Base class for STL formula nodes.  Nodes are immutable values
    (:class:`~ambistl.record.Record`), and the node classes are final: the
    walkers dispatch on exact types.  A canonical node that a canonical
    constructor built or :func:`canonical_form` returned keeps its rendering
    and extent in the ``_canonical`` and ``_extent`` slots; it is canonical."""

    __slots__ = ("_canonical", "_extent")

    def __str__(self) -> str:
        return format_formula(self)


class TrueF(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)


class Not(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula) -> None:
        object.__setattr__(self, "child", child)


class And(Formula):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Formula, ...]) -> None:
        if len(children) < 2:
            raise ValueError("And requires at least two children")
        object.__setattr__(self, "children", children)


class Or(Formula):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Formula, ...]) -> None:
        if len(children) < 2:
            raise ValueError("Or requires at least two children")
        object.__setattr__(self, "children", children)


class F(Formula):
    __slots__ = ("interval", "child")

    def __init__(self, interval: Interval, child: Formula) -> None:
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "child", child)


class G(Formula):
    __slots__ = ("interval", "child")

    def __init__(self, interval: Interval, child: Formula) -> None:
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "child", child)


class Until(Formula):
    __slots__ = ("interval", "left", "right")

    def __init__(self, interval: Interval, left: Formula, right: Formula) -> None:
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


def atoms_of(formula: Formula) -> set[str]:
    """Names of all atoms occurring in the formula."""
    found = {formula.name} if type(formula) is Atom else set()
    try:
        for child in _children(formula):
            found |= atoms_of(child)
    except RecursionError:
        raise FormulaDepthError(_TOO_DEEP) from None
    return found


def _children(node: Formula) -> tuple[Formula, ...]:
    """The subformulas of ``node``, in rendering order."""
    kind = type(node)
    if kind is And or kind is Or:
        return node.children
    if kind is Not or kind is F or kind is G:
        return (node.child,)
    if kind is Atom or kind is TrueF:
        return ()
    if kind is Until:
        return (node.left, node.right)
    raise TypeError(f"not a formula node: {node!r}")


def _text(node: Formula, parts: list[str]) -> str:
    """The rendering of ``node`` given the renderings ``parts`` of its
    children (:func:`_children`); the one place that writes the syntax."""
    kind = type(node)
    if kind is F or kind is G:
        body = parts[0]
        sep = "" if body.startswith("(") else " "
        return f"{'F' if kind is F else 'G'}{node.interval}{sep}{body}"
    if kind is And or kind is Or:
        return "(" + (" & " if kind is And else " | ").join(parts) + ")"
    if kind is Not:
        return "!" + parts[0]
    if kind is Atom:
        return f"phi_{node.name}"
    if kind is TrueF:
        return "true"
    if kind is Until:
        return f"U{node.interval}({parts[0]}, {parts[1]})"
    raise TypeError(f"not a formula node: {node!r}")


def format_formula(formula: Formula) -> str:
    """Deterministic, parse-unambiguous text rendering.

    Grammar: ``true | phi_<name> | !f | (f & f & ...) | (f | f | ...)
    | F[a,b] f | G[a,b] f | U[a,b](f, f)``.  Conjunctions and disjunctions
    are always parenthesised, so every subterm is self-delimiting.
    """
    try:
        return _text(formula, list(map(format_formula, _children(formula))))
    except RecursionError:
        raise FormulaDepthError(_TOO_DEEP) from None


class _Unshared(dict):
    """The node table outside a sharing call: it keeps nothing."""

    def __setitem__(self, key: object, value: object) -> None:
        pass


# The nodes of the current sharing call by kind, interval and child identities.
_NODES: ContextVar[dict] = ContextVar("ambistl.stl.nodes", default=_Unshared())


def sharing(fn: Callable) -> Callable:
    """``fn`` with a node table for its call, dropped on return or error: the
    canonical constructors build one node per kind, interval and children."""

    @wraps(fn)
    def call(*args, **kwargs):
        token = None if type(_NODES.get()) is dict else _NODES.set({})  # the outermost makes it
        try:
            return fn(*args, **kwargs)
        finally:
            if token is not None:
                _NODES.reset(token)

    return call


def canonicalize(formula: Formula) -> Formula:
    """Rewrite a formula to its canonical normal form.

    The normal form eliminates double negation, flattens nested
    conjunctions into conjunctions and nested disjunctions into
    disjunctions, sorts the children of each connective by their text
    rendering, and drops duplicate siblings.  No rewriting crosses a
    temporal operator, so e.g. an F over a disjunction is left as is.
    Idempotent: a canonical formula is returned itself.
    :func:`canonical_form` also returns the rendering, the key by which the
    pipeline packs meanings and groups candidates.
    """
    return canonical_form(formula)[0]


@sharing
def canonical_form(formula: Formula) -> tuple[Formula, str]:
    """:func:`canonicalize` and :func:`format_formula` of the result.  A
    canonical node keeps its rendering, which is read; any other formula is
    rebuilt bottom-up through the canonical constructors below, and its
    canonical subtrees are read, not walked."""
    if getattr(formula, "_canonical", None) is None:
        try:
            formula = _fold(formula)
        except RecursionError:
            raise FormulaDepthError(_TOO_DEEP) from None
    return formula, formula._canonical


def _fold(node: Formula) -> Formula:
    """The canonical form of ``node``, built through the canonical constructors."""
    if getattr(node, "_canonical", None) is not None:
        return node
    kind = type(node)
    if kind is Not:
        return canonical_not(_fold(node.child))
    if kind is And or kind is Or:
        return canonical_junction(kind, map(_fold, node.children))
    if kind is F or kind is G or kind is Until:
        return canonical_temporal(kind, node.interval, *map(_fold, _children(node)))
    return _keep(node, [], 0, (kind.__name__, id(node)))  # a leaf is canonical as it is


_EXTENT = attrgetter("_extent")


def _keep(node: Formula, parts: list[str], horizon: int, key: tuple) -> Formula:
    """The canonical ``node``, rendered from its children's ``parts``, with
    extent ``horizon``; the node table keeps it under ``key``."""
    object.__setattr__(node, "_canonical", _text(node, parts))  # cache slots, not fields
    object.__setattr__(node, "_extent", horizon)
    _NODES.get()[key] = node
    return node


def canonical_not(child: Formula) -> Formula:
    """The canonical negation of a canonical ``child``: ``!!f`` is ``f``."""
    if type(child) is Not:
        return child.child
    key = ("Not", id(child))
    return _NODES.get().get(key) or _keep(Not(child), [child._canonical], child._extent, key)


def canonical_junction(kind: type[And] | type[Or], children: Iterable[Formula]) -> Formula:
    """The canonical ``kind`` connective over canonical ``children``: flat (a
    child of the same kind gives its members), free of duplicates and sorted
    by rendering; a single member is returned itself."""
    members: dict[str, Formula] = {}
    for child in children:
        for member in child.children if type(child) is kind else (child,):
            members.setdefault(member._canonical, member)
    if len(members) == 1:
        return members.popitem()[1]
    parts = sorted(members)
    ordered = tuple(map(members.__getitem__, parts))
    key = (kind.__name__, *map(id, ordered))
    return _NODES.get().get(key) or _keep(kind(ordered), parts, max(map(_EXTENT, ordered)), key)


def canonical_temporal(kind: type, interval: Interval, *children: Formula) -> Formula:
    """The ``kind`` operator (F, G or Until) over canonical ``children``."""
    key = (kind.__name__, interval.lo, interval.hi, *map(id, children))
    return _NODES.get().get(key) or _keep(
        kind(interval, *children), [child._canonical for child in children],
        interval.hi + max(map(_EXTENT, children)), key,
    )


def extent(formula: Formula) -> int:
    """Temporal horizon: the farthest step the formula can look ahead."""
    if hasattr(formula, "_extent"):  # a canonical node keeps it
        return formula._extent
    below = 0
    try:
        for child in _children(formula):
            below = max(below, extent(child))
    except RecursionError:
        raise FormulaDepthError(_TOO_DEEP) from None
    kind = type(formula)
    return formula.interval.hi + below if kind is F or kind is G or kind is Until else below


# ---------------------------------------------------------------------------
# Reader for the canonical text rendering (round-trips format_formula).


def parse_formula(text: str) -> Formula:
    """Parse the canonical rendering back into a formula tree."""
    tokens = scan(text, "()[],&|!", FormulaSyntaxError)
    try:
        formula, pos = _parse(tokens, 0)
    except RecursionError:
        raise FormulaSyntaxError("formula nested too deeply") from None
    if pos != len(tokens):
        raise FormulaSyntaxError(f"trailing input at token {pos}: {tokens[pos:]}")
    return formula


def _expect(tokens: list[str], pos: int, expected: str) -> int:
    if pos >= len(tokens) or tokens[pos] != expected:
        got = tokens[pos] if pos < len(tokens) else "end of input"
        raise FormulaSyntaxError(f"expected {expected!r}, got {got!r}")
    return pos + 1


def _parse_interval(tokens: list[str], pos: int) -> tuple[Interval, int]:
    pos = _expect(tokens, pos, "[")
    lo, pos = _parse_bound(tokens, pos)
    pos = _expect(tokens, pos, ",")
    hi, pos = _parse_bound(tokens, pos)
    pos = _expect(tokens, pos, "]")
    try:
        return Interval(lo, hi), pos
    except ValueError as exc:
        raise FormulaSyntaxError(str(exc)) from None


def _parse_bound(tokens: list[str], pos: int) -> tuple[int, int]:
    if pos >= len(tokens) or not tokens[pos].isdecimal():
        got = tokens[pos] if pos < len(tokens) else "end of input"
        raise FormulaSyntaxError(f"expected an interval bound, got {got!r}")
    return int(tokens[pos]), pos + 1


def _parse(tokens: list[str], pos: int) -> tuple[Formula, int]:
    if pos >= len(tokens):
        raise FormulaSyntaxError("unexpected end of input")
    tok = tokens[pos]
    if tok == "true":
        return TrueF(), pos + 1
    if tok.startswith("phi_"):
        name = tok[len("phi_"):]
        if not name:
            raise FormulaSyntaxError("empty atom name")
        return Atom(name), pos + 1
    if tok == "!":
        child, pos = _parse(tokens, pos + 1)
        return Not(child), pos
    if tok in ("F", "G"):
        interval, pos = _parse_interval(tokens, pos + 1)
        child, pos = _parse(tokens, pos)
        return (F if tok == "F" else G)(interval, child), pos
    if tok == "U":
        interval, pos = _parse_interval(tokens, pos + 1)
        pos = _expect(tokens, pos, "(")
        left, pos = _parse(tokens, pos)
        pos = _expect(tokens, pos, ",")
        right, pos = _parse(tokens, pos)
        pos = _expect(tokens, pos, ")")
        return Until(interval, left, right), pos
    if tok == "(":
        first, pos = _parse(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] not in ("&", "|"):
            raise FormulaSyntaxError("expected '&' or '|' inside parentheses")
        op = tokens[pos]
        children = [first]
        while pos < len(tokens) and tokens[pos] == op:
            child, pos = _parse(tokens, pos + 1)
            children.append(child)
        pos = _expect(tokens, pos, ")")
        node = And if op == "&" else Or
        return node(tuple(children)), pos
    raise FormulaSyntaxError(f"unexpected token {tok!r}")
