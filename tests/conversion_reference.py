"""An independent reference for the conversion rules of ``pipeline``: the
canonical formula of a beta-normal meaning term, built from plain nodes by
the documented rules and put in canonical form by ``reference_canonicalize``.

SEQ(P, Q) conjoins Q into the innermost reach of P's eventually-chain; P
must hold exactly one eventually task at the top of its canonical form.
EXTG(guard, anchor) applies the guard to the window [0, extent(anchor)].
Every other term in a formula position is ill-formed.
"""

from __future__ import annotations

from ambistl.pipeline import IllFormedMeaningError
from ambistl.semantics import App, Con, IntC, Term, beta_reduce
from ambistl.stl import And, F, Formula, G, Interval, Not, Or, extent

from packing_reference import reference_canonicalize


def reference_formula(term: Term | Formula) -> Formula:
    """The canonical formula of ``term``, or :class:`IllFormedMeaningError`."""
    return reference_canonicalize(_convert(term))


def _convert(term: Term | Formula) -> Formula:
    if isinstance(term, Formula):
        return term
    name, args = (term.name, term.args) if isinstance(term, Con) else (None, ())
    if name == "NOT":
        return Not(_convert(args[0]))
    if name in ("AND", "OR"):
        return (And if name == "AND" else Or)(tuple(map(_convert, args)))
    if name in ("F", "G"):
        return (F if name == "F" else G)(_interval(args[0]), _convert(args[1]))
    if name == "SEQ":
        return _sequence(reference_canonicalize(_convert(args[0])), _convert(args[1]))
    if name == "EXTG":
        window = Con("I", (IntC(0), IntC(extent(_convert(args[1])))))
        return _convert(beta_reduce(App(args[0], window)))
    raise IllFormedMeaningError(f"not a formula: {term}")


def _interval(term: Term) -> Interval:
    if isinstance(term, Con) and term.name == "I":
        if all(isinstance(bound, IntC) for bound in term.args):
            try:
                return Interval(*(bound.value for bound in term.args))
            except ValueError as exc:
                raise IllFormedMeaningError(str(exc)) from None
    raise IllFormedMeaningError(f"not an interval: {term}")


def _sequence(head: Formula, tail: Formula) -> Formula:
    conjuncts = head.children if isinstance(head, And) else (head,)
    if sum(isinstance(conjunct, F) for conjunct in conjuncts) != 1:
        raise IllFormedMeaningError("sequence head is not an eventually task")
    return _insert(head, tail)


def _insert(chi: Formula, tail: Formula) -> Formula:
    """``tail`` conjoined into the innermost reach of ``chi``'s
    eventually-chain: through an F into its body, through a conjunction
    into its one eventually conjunct, and otherwise beside the conjuncts."""
    if isinstance(chi, F):
        return F(chi.interval, _insert(chi.child, tail))
    conjuncts = list(chi.children) if isinstance(chi, And) else [chi]
    tasks = [index for index, conjunct in enumerate(conjuncts) if isinstance(conjunct, F)]
    if len(tasks) == 1:
        conjuncts[tasks[0]] = _insert(conjuncts[tasks[0]], tail)
    else:
        conjuncts.append(tail)
    return And(tuple(conjuncts))
