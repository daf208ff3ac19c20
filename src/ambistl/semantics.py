"""Meaning terms and their reduction.

The intermediate meaning language is an untyped lambda calculus (``Var``,
``Lam``, ``App``) over atoms ``phi_<name>`` (``AtomC``), integer literals
(``IntC``) and one constructor node, ``Con(name, args)``.  The constructor
names and arities are fixed by ``_CONSTRUCTORS``: the interval literal I,
the temporal constructors F and G, the boolean constructors NOT/AND/OR,
symbolic sequencing SEQ, and EXTG, the guard whose interval is anchored to
the temporal extent of its sibling (resolved during conversion to STL).
Lexical templates are closed terms in this language; composition (in
``pipeline``) applies them along a derivation and beta-reduces the result
with a single normal-order normalizer, capped at ``REDUCTION_BUDGET`` beta
contractions.

Constructors are opaque to reduction: an application whose head is a
constructor is stuck and survives into the normal form, where the
conversion step rejects the meaning as ill-formed.  The typed sentence
categories of the bundled lexicon never build such an application.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator

REDUCTION_BUDGET = 10_000


class TermError(Exception):
    """Base class for meaning-term errors."""


class ReductionBudgetError(TermError):
    """Reduction did not reach a normal form within the contraction budget."""


class TemplateSyntaxError(TermError):
    """The template expression could not be parsed."""


class Term:
    """Base class for meaning-term nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Lam(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class AtomC(Term):
    name: str


@dataclass(frozen=True)
class IntC(Term):
    value: int


@dataclass(frozen=True)
class Con(Term):
    """A constructor applied to its arguments, e.g. ``F(I(0, 10), phi_b)``."""

    name: str
    args: tuple[Term, ...]


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


_fresh_counter = count()


def _fresh(base: str, avoid: set[str]) -> str:
    while True:
        name = f"{base}_{next(_fresh_counter)}"
        if name not in avoid:
            return name


def substitute(t: Term, var: str, repl: Term) -> Term:
    """Capture-avoiding substitution of ``repl`` for ``var`` in ``t``."""
    repl_free = free_vars(repl)

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            return repl if t.name == var else t
        if isinstance(t, Lam):
            if t.var == var:
                return t
            if t.var in repl_free:
                fresh = _fresh(t.var, free_vars(t.body) | repl_free | {var})
                renamed = substitute(t.body, t.var, Var(fresh))
                return Lam(fresh, go(renamed))
            return Lam(t.var, go(t.body))
        if isinstance(t, App):
            return App(go(t.fn), go(t.arg))
        if isinstance(t, Con):
            return Con(t.name, tuple(go(a) for a in t.args))
        return t

    return go(t)


def beta_reduce(term: Term) -> Term:
    """Reduce ``term`` to beta-normal form in normal order.

    The head is reduced to weak-head normal form first, contracting each
    ``App(Lam, arg)`` with :func:`substitute`; then the pieces are
    normalized: the operands of a stuck application, a lambda body and
    constructor children.  More than :data:`REDUCTION_BUDGET` contractions
    raise :class:`ReductionBudgetError`, the signal for an ill-typed
    template that has no normal form.
    """
    contractions = 0

    def head_normal(t: Term) -> Term:
        nonlocal contractions
        while isinstance(t, App):
            fn = head_normal(t.fn)
            if not isinstance(fn, Lam):
                return App(fn, t.arg)
            contractions += 1
            if contractions > REDUCTION_BUDGET:
                raise ReductionBudgetError(
                    f"no normal form within {REDUCTION_BUDGET} contractions (ill-typed template?)"
                )
            t = substitute(fn.body, fn.var, t.arg)
        return t

    def normalize(t: Term) -> Term:
        t = head_normal(t)
        if isinstance(t, App):
            return App(normalize(t.fn), normalize(t.arg))
        if isinstance(t, Lam):
            return Lam(t.var, normalize(t.body))
        if isinstance(t, Con):
            return Con(t.name, tuple(normalize(a) for a in t.args))
        return t

    return normalize(term)


# ---------------------------------------------------------------------------
# Template expression mini-language.


def format_term(t: Term) -> str:
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
    if isinstance(t, AtomC):
        return f"phi_{t.name}"
    if isinstance(t, IntC):
        return str(t.value)
    if isinstance(t, Con):
        return f"{t.name}({', '.join(format_term(a) for a in t.args)})"
    raise TypeError(f"not a term node: {t!r}")


def _lex_template(text: str) -> Iterator[str]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "().,":
            yield ch
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield text[i:j]
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield text[i:j]
            i = j
        else:
            raise TemplateSyntaxError(f"unexpected character {ch!r} in template")


def parse_term(text: str) -> Term:
    """Parse a template expression: ``lam v. body``, application ``f(a, b)``,
    constructors ``F G NOT AND OR SEQ I EXTG``, atoms ``phi_<name>``, integers,
    and variables."""
    tokens = list(_lex_template(text))
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
    if tok.isdigit():
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
        return AtomC(name), pos + 1
    if tok.isidentifier():
        return Var(tok), pos + 1
    raise TemplateSyntaxError(f"unexpected token {tok!r}")
