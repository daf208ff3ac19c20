"""The uncached reference for ``stl.canonical_form``, the key the packing
pass groups meanings by: one full walk per formula, each connective's
children sorted by re-rendering them with ``format_formula``."""

from __future__ import annotations

from ambistl.stl import And, F, Formula, G, Not, Or, Until, format_formula


def reference_canonicalize(formula: Formula) -> Formula:
    """Canonical form by re-rendering each connective's children to sort them."""
    if isinstance(formula, Not):
        child = reference_canonicalize(formula.child)
        return child.child if isinstance(child, Not) else Not(child)
    if isinstance(formula, (And, Or)):
        flat = []
        for item in formula.children:
            c = reference_canonicalize(item)
            flat.extend(c.children if isinstance(c, type(formula)) else [c])
        seen = {}
        for c in flat:
            seen.setdefault(format_formula(c), c)
        ordered = [seen[k] for k in sorted(seen)]
        return ordered[0] if len(ordered) == 1 else type(formula)(tuple(ordered))
    if isinstance(formula, (F, G)):
        return type(formula)(formula.interval, reference_canonicalize(formula.child))
    if isinstance(formula, Until):
        left, right = map(reference_canonicalize, (formula.left, formula.right))
        return Until(formula.interval, left, right)
    return formula
