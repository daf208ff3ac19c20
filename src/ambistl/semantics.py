"""Meaning terms and their reduction.

The intermediate meaning language is an untyped lambda calculus (``Var``,
``Lam``, ``App``) over integer literals (``IntC``), one constructor node,
``Con(name, args)``, and STL formulas as closed constants.  The constructor
names and arities are fixed by ``_CONSTRUCTORS``: the interval literal I,
the temporal constructors F and G, the boolean constructors NOT/AND/OR,
symbolic sequencing SEQ, and EXTG, the guard whose interval is anchored to
the temporal extent of its sibling (resolved during conversion to STL).
Lexical templates are closed terms in this language, reduced by a single
normal-order normalizer, :func:`beta_reduce`, within ``REDUCTION_BUDGET``
beta contractions and the recursion limit.  ``pipeline`` normalizes each
template once and compiles it into closures, which ``translate`` composes
by calling them, within the same limits; the reducer also serves the term
path, ``pipeline.compose``, which applies the templates along one
derivation and reduces the result for ``analyze`` and ``explain``.

Constructors are opaque to reduction: an application whose head is a
constructor is stuck and survives into the normal form, where the
conversion step rejects the meaning as ill-formed.  The typed sentence
categories of the bundled lexicon never build such an application.

A formula constant is a :class:`~ambistl.stl.Formula` object inside a term.
Templates hold only atoms, which :func:`parse_term` reads from and
:func:`format_term` writes as ``phi_<name>``.  Reduction, substitution and
``free_vars`` pass a formula through as they pass an integer, and an
application of one is stuck.
"""

from __future__ import annotations

from itertools import count
from operator import is_
from typing import Iterator

from .record import Record
from .stl import Atom, Formula, format_formula
from .text import scan

REDUCTION_BUDGET = 10_000


class TermError(Exception):
    """Base class for meaning-term errors."""


class ReductionBudgetError(TermError):
    """No normal form within the contraction budget or the recursion limit."""

    def __init__(self, limit: str = f"{REDUCTION_BUDGET} contractions") -> None:
        super().__init__(f"no normal form within {limit} (ill-typed template?)")


class TemplateSyntaxError(TermError):
    """The template expression could not be parsed."""


class Term(Record):
    """Base class for meaning-term nodes, immutable values
    (:class:`~ambistl.record.Record`)."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)


class Lam(Term):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Term) -> None:
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)


class App(Term):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term) -> None:
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)


class IntC(Term):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        object.__setattr__(self, "value", value)


class Con(Term):
    """A constructor applied to its arguments, e.g. ``F(I(0, 10), phi_b)``."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Term, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)


_CONSTRUCTORS: dict[str, int] = {
    "F": 2,
    "G": 2,
    "NOT": 1,
    "AND": 2,
    "OR": 2,
    "SEQ": 2,
    "I": 2,
    "EXTG": 2,
}


def free_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.var}
    if isinstance(t, App):
        return free_vars(t.fn) | free_vars(t.arg)
    if isinstance(t, Con):
        vs: set[str] = set()
        for a in t.args:
            vs |= free_vars(a)
        return vs
    return set()


def _fresh(base: str, avoid: set[str]) -> str:
    """``base_n`` for the smallest ``n`` that is not in ``avoid``."""
    n = 0
    while f"{base}_{n}" in avoid:
        n += 1
    return f"{base}_{n}"


def substitute(t: Term, var: str, repl: Term) -> Term:
    """Capture-avoiding substitution of ``repl`` for ``var`` in ``t``.

    Subterms in which ``var`` is not free come back as the same objects,
    so ``t`` itself does when ``var`` is not free in it.  A bound variable
    is renamed only where ``repl`` would be captured under it."""
    return _substitute(t, var, repl, free_vars(repl))


def _substitute(t: Term, var: str, repl: Term, repl_free: set[str]) -> Term:
    if isinstance(t, Var):
        return repl if t.name == var else t
    if isinstance(t, Lam):
        if t.var == var:
            return t
        if t.var in repl_free:
            body_free = free_vars(t.body)
            if var not in body_free:
                return t
            fresh = _fresh(t.var, body_free | repl_free | {var})
            renamed = substitute(t.body, t.var, Var(fresh))
            return Lam(fresh, _substitute(renamed, var, repl, repl_free))
        body = _substitute(t.body, var, repl, repl_free)
        return t if body is t.body else Lam(t.var, body)
    if isinstance(t, App):
        fn = _substitute(t.fn, var, repl, repl_free)
        arg = _substitute(t.arg, var, repl, repl_free)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if isinstance(t, Con):
        args = tuple([_substitute(a, var, repl, repl_free) for a in t.args])
        return t if _same(args, t.args) else Con(t.name, args)
    return t


def _same(new: tuple[Term, ...], old: tuple[Term, ...]) -> bool:
    """Whether ``new`` holds the very objects of ``old``."""
    return all(map(is_, new, old))


def beta_reduce(term: Term) -> Term:
    """Reduce ``term`` to beta-normal form in normal order.

    The head is reduced to weak-head normal form first, contracting each
    ``App(Lam, arg)`` with :func:`substitute`; then the pieces are
    normalized: the operands of a stuck application, a lambda body and
    constructor children.  A node none of whose pieces changed is returned
    as it is, so a term already in normal form comes back as the same
    object and a reduct shares every subterm the reduction left alone.
    More than :data:`REDUCTION_BUDGET` contractions, or nesting past the
    recursion limit, raise :class:`ReductionBudgetError`, the signal for an
    ill-typed template that has no normal form.
    """
    try:
        return _normalize(term, count(1))
    except RecursionError:
        raise ReductionBudgetError("the recursion limit") from None


def _normalize(t: Term, contractions: Iterator[int]) -> Term:
    t = _head_normal(t, contractions)
    if isinstance(t, App):
        fn = _normalize(t.fn, contractions)
        arg = _normalize(t.arg, contractions)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if isinstance(t, Lam):
        body = _normalize(t.body, contractions)
        return t if body is t.body else Lam(t.var, body)
    if isinstance(t, Con):
        args = tuple([_normalize(a, contractions) for a in t.args])
        return t if _same(args, t.args) else Con(t.name, args)
    return t


def _head_normal(t: Term, contractions: Iterator[int]) -> Term:
    """Weak-head normal form; ``contractions`` numbers each contraction of
    one :func:`beta_reduce` call."""
    while isinstance(t, App):
        fn = _head_normal(t.fn, contractions)
        if not isinstance(fn, Lam):
            return t if fn is t.fn else App(fn, t.arg)
        if next(contractions) > REDUCTION_BUDGET:
            raise ReductionBudgetError()
        t = substitute(fn.body, fn.var, t.arg)
    return t


# ---------------------------------------------------------------------------
# Template expression mini-language.


def format_term(t: Term | Formula) -> str:
    """Render a term in the template mini-language."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lam):
        return f"lam {t.var}. {format_term(t.body)}"
    if isinstance(t, App):
        head = t
        args: list[Term] = []
        while isinstance(head, App):
            args.append(head.arg)
            head = head.fn
        args.reverse()
        head_text = format_term(head)
        if isinstance(head, Lam):
            head_text = f"({head_text})"
        return f"{head_text}({', '.join(format_term(a) for a in args)})"
    if isinstance(t, IntC):
        return str(t.value)
    if isinstance(t, Con):
        return f"{t.name}({', '.join(format_term(a) for a in t.args)})"
    if isinstance(t, Formula):
        return format_formula(t)
    raise TypeError(f"not a term node: {t!r}")


def parse_term(text: str) -> Term:
    """Parse a template expression: ``lam v. body``, application ``f(a, b)``,
    constructors ``F G NOT AND OR SEQ I EXTG``, atoms ``phi_<name>``, integers,
    and variables."""
    tokens = scan(text, "().,", TemplateSyntaxError)
    try:
        term, pos = _parse_term(tokens, 0)
    except RecursionError:
        raise TemplateSyntaxError("template nested too deeply") from None
    if pos != len(tokens):
        raise TemplateSyntaxError(f"trailing input: {' '.join(tokens[pos:])!r}")
    return term


def _parse_term(tokens: list[str], pos: int) -> tuple[Term, int]:
    if pos >= len(tokens):
        raise TemplateSyntaxError("unexpected end of template")
    if tokens[pos] == "lam":
        if pos + 2 >= len(tokens) or tokens[pos + 2] != ".":
            raise TemplateSyntaxError("expected 'lam <var>. <body>'")
        var = tokens[pos + 1]
        if not var.isidentifier() or var == "lam":
            raise TemplateSyntaxError(f"bad variable name {var!r}")
        body, pos = _parse_term(tokens, pos + 3)
        return Lam(var, body), pos
    return _parse_app(tokens, pos)


def _parse_app(tokens: list[str], pos: int) -> tuple[Term, int]:
    term, pos = _parse_atom(tokens, pos)
    while pos < len(tokens) and tokens[pos] == "(":
        args, pos = _parse_args(tokens, pos)
        for arg in args:
            term = App(term, arg)
    return term, pos


def _parse_args(tokens: list[str], pos: int) -> tuple[list[Term], int]:
    assert tokens[pos] == "("
    pos += 1
    args: list[Term] = []
    while True:
        arg, pos = _parse_term(tokens, pos)
        args.append(arg)
        if pos >= len(tokens):
            raise TemplateSyntaxError("unclosed argument list")
        if tokens[pos] == ",":
            pos += 1
            continue
        if tokens[pos] == ")":
            return args, pos + 1
        raise TemplateSyntaxError(f"expected ',' or ')', got {tokens[pos]!r}")


def _parse_atom(tokens: list[str], pos: int) -> tuple[Term, int]:
    tok = tokens[pos]
    if tok == "(":
        term, pos = _parse_term(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise TemplateSyntaxError("unclosed parenthesis")
        return term, pos + 1
    if tok.isdecimal():
        return IntC(int(tok)), pos + 1
    if tok in _CONSTRUCTORS:
        arity = _CONSTRUCTORS[tok]
        if pos + 1 >= len(tokens) or tokens[pos + 1] != "(":
            raise TemplateSyntaxError(f"constructor {tok} expects {arity} argument(s)")
        args, pos = _parse_args(tokens, pos + 1)
        if len(args) != arity:
            raise TemplateSyntaxError(
                f"constructor {tok} expects {arity} argument(s), got {len(args)}"
            )
        return Con(tok, tuple(args)), pos
    if tok.startswith("phi_"):
        name = tok[len("phi_"):]
        if not name:
            raise TemplateSyntaxError("empty atom name")
        return Atom(name), pos + 1
    if tok.isidentifier():
        return Var(tok), pos + 1
    raise TemplateSyntaxError(f"unexpected token {tok!r}")
