"""Reference beta reducer: small-step, leftmost-outermost.

Each step re-walks the term from the root and contracts the leftmost
outermost redex, so the reduction order is evident from the code.  Tests
compare :func:`ambistl.semantics.beta_reduce` against it.
"""

from __future__ import annotations

from ambistl.semantics import REDUCTION_BUDGET, App, Lam, Term, _children, _rebuild, substitute


def step_normal(t: Term) -> Term | None:
    """One leftmost-outermost beta step, or None when ``t`` is normal."""
    if isinstance(t, App):
        if isinstance(t.fn, Lam):
            return substitute(t.fn.body, t.fn.var, t.arg)
        fn = step_normal(t.fn)
        if fn is not None:
            return App(fn, t.arg)
        arg = step_normal(t.arg)
        if arg is not None:
            return App(t.fn, arg)
        return None
    if isinstance(t, Lam):
        body = step_normal(t.body)
        return Lam(t.var, body) if body is not None else None
    kids = _children(t)
    for i, c in enumerate(kids):
        stepped = step_normal(c)
        if stepped is not None:
            kids[i] = stepped
            return _rebuild(t, kids)
    return None


def reduce_small_step(term: Term) -> Term:
    """Normal form of ``term`` by repeated :func:`step_normal`."""
    current = term
    for _ in range(REDUCTION_BUDGET):
        reduced = step_normal(current)
        if reduced is None:
            return current
        current = reduced
    raise AssertionError(f"no normal form within {REDUCTION_BUDGET} steps")
