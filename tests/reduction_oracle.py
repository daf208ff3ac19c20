"""Reference beta reducer: small-step, leftmost-outermost.

Each step re-walks the term from the root and contracts the leftmost
outermost redex, so the reduction order is evident from the code.  Tests
compare :func:`ambistl.semantics.beta_reduce` against it, up to
:func:`alpha_equal`.
"""

from __future__ import annotations

from ambistl.semantics import REDUCTION_BUDGET, App, Con, Lam, Term, Var, substitute


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
    if isinstance(t, Con):
        for i, c in enumerate(t.args):
            stepped = step_normal(c)
            if stepped is not None:
                return Con(t.name, t.args[:i] + (stepped,) + t.args[i + 1 :])
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


def alpha_equal(a: Term, b: Term) -> bool:
    """Structural equality modulo renaming of bound variables."""

    def go(x: Term, y: Term, env_x: dict[str, int], env_y: dict[str, int], depth: int) -> bool:
        if isinstance(x, Var) and isinstance(y, Var):
            bx, by = env_x.get(x.name), env_y.get(y.name)
            if bx is None and by is None:
                return x.name == y.name
            return bx == by
        if isinstance(x, Lam) and isinstance(y, Lam):
            return go(
                x.body, y.body, {**env_x, x.var: depth}, {**env_y, y.var: depth}, depth + 1
            )
        if isinstance(x, App) and isinstance(y, App):
            return go(x.fn, y.fn, env_x, env_y, depth) and go(x.arg, y.arg, env_x, env_y, depth)
        if isinstance(x, Con) and isinstance(y, Con):
            return (
                x.name == y.name
                and len(x.args) == len(y.args)
                and all(go(cx, cy, env_x, env_y, depth) for cx, cy in zip(x.args, y.args))
            )
        return x == y

    return go(a, b, {}, {}, 0)
