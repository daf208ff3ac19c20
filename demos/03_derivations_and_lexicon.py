"""Under the hood: parse trees, meaning terms, and extending the lexicon.

Part 1 dumps the scored derivations for a sequence command with a trailing
while-clause, showing how the attachment site determines both the formula
and the score.

Part 2 edits the lexicon at runtime: adding a synonym for 'reach' is one
line, after which previously unparseable commands translate normally.

Run:  python3 demos/03_derivations_and_lexicon.py
"""

from ambistl import (
    analyze,
    format_lexicon,
    load_default_lexicon,
    load_lexicon,
    translate,
    validate_lexicon,
)
from ambistl.parser import pretty_derivation

SENTENCE = "Reach B within 10 seconds and then reach C within 15 seconds while avoiding A."


def part_one() -> None:
    print("=" * 78)
    print("Part 1: derivations behind each candidate")
    print("=" * 78)
    candidate_set, reports = analyze(SENTENCE)
    print(f"\n{SENTENCE}")
    print(
        f"{candidate_set.n_derivations} derivations, "
        f"{candidate_set.discarded_count} discarded as ill-formed\n"
    )
    for rank, cand in enumerate(candidate_set.candidates, start=1):
        print(f"candidate {rank}: p={cand.probability:.3f}  {cand.formula}")
        for report in reports:
            if report.formula == cand.formula:
                print(f"  from derivation {report.index} (score {report.score:+.2f}):")
                print(pretty_derivation(report.root, indent=2))
                print(f"    meaning term: {report.meaning}")
        print()
    print("The while-clause attaching to the nearest reach costs nothing; taking")
    print("scope over the whole sequence skips one task verb and pays 0.7 in")
    print("log-score, which is why the local reading ranks first.")


def part_two() -> None:
    print("=" * 78)
    print("Part 2: the lexicon is plain text and editable")
    print("=" * 78)
    base = load_default_lexicon()
    print(f"\ndefault lexicon: {sum(1 for _ in base.all_entries())} entries, "
          f"diagnostics: {validate_lexicon(base) or 'none'}")

    extended = load_lexicon(
        format_lexicon(base) + "visit | T/NP | 0.0 | lam x. lam i. F(i, x)\n"
    )
    sentence = "Visit D within 5 seconds while avoiding A."
    result = translate(sentence, extended)
    print(f"\nafter adding a 'visit' entry, {sentence!r} translates to:")
    for line in result.format_table().splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    part_one()
    part_two()
