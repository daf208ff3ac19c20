"""A reference for ``stl.ac_key``: the packing key as the pipeline first
computed it, one full walk per formula and no cache.

:func:`reference_key` spells the syntax out itself and always puts a space
after a temporal operator's interval, so its keys differ in text from
``ac_key``'s; the two must still split formulas into the same groups.
"""

from __future__ import annotations

from ambistl.stl import And, F, Formula, G, Not, Or, format_formula


def reference_key(formula: Formula) -> str:
    """The rendering of ``formula`` with nested conjunctions and
    disjunctions flattened and their children sorted, duplicates kept."""
    if isinstance(formula, (And, Or)):
        parts = sorted(reference_key(c) for c in _flat_children(formula, type(formula)))
        return "(" + (" & " if isinstance(formula, And) else " | ").join(parts) + ")"
    if isinstance(formula, Not):
        return "!" + reference_key(formula.child)
    if isinstance(formula, (F, G)):
        op = "F" if isinstance(formula, F) else "G"
        return f"{op}{formula.interval} {reference_key(formula.child)}"
    return format_formula(formula)


def _flat_children(formula: Formula, same: type):
    for child in formula.children:
        if isinstance(child, same):
            yield from _flat_children(child, same)
        else:
            yield child
