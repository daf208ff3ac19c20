"""Command-line front end.

Subcommands: ``translate`` (sentence -> ranked candidates), ``corpus``
(batch translation with an optional expectations gate), ``eval``
(candidate robustness on a trajectory), ``explain`` (derivation dump).

Exit codes: 0 success, 1 usage error, 2 translation failure (including a
template with no normal form and scores outside float range) or unknown
atom, 3 I/O or file-format error, 4 corpus expectation mismatch, 141
(128 + SIGPIPE) when the reader of stdout closes it before the output ends
(``ambistl explain ... | head -1``), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from importlib import resources
from typing import Optional

from .lexicon import Lexicon, LexiconError, load_default_lexicon, load_lexicon
from .parser import (
    DEFAULT_N_BEST,
    CoverageError,
    EmptySentenceError,
    NoParseError,
    pretty_derivation,
)
from .pipeline import (
    CandidateSet,
    EmptyCandidateSetError,
    ScoreRangeError,
    analyze,
    translate,
)
from .regions import load_regions
from .semantics import TermError, format_term
from .stl import UnknownAtomError
from .text import lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRANSLATION = 2
EXIT_IO = 3
EXIT_MISMATCH = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

# Errors that exit with EXIT_TRANSLATION.
TRANSLATION_ERRORS = (
    EmptySentenceError, CoverageError, NoParseError, EmptyCandidateSetError, ScoreRangeError,
    TermError, UnknownAtomError,
)

LEXICON_ENV_VAR = "AMBISTL_LEXICON"

log = logging.getLogger("ambistl")


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="ambistl",
        description="Translate navigation commands into ranked STL candidate formulas.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lexicon", metavar="PATH", help="lexicon file (default: bundled)")
    common.add_argument("-v", "--verbose", action="count", default=0)
    formatted = argparse.ArgumentParser(add_help=False, parents=[common])
    formatted.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_translate = sub.add_parser(
        "translate", parents=[formatted], help="translate one sentence"
    )
    p_translate.add_argument("sentence")

    p_corpus = sub.add_parser(
        "corpus", parents=[formatted], help="translate a corpus file, optionally gated"
    )
    p_corpus.add_argument("corpus_file", nargs="?", default=None,
                          help="TSV of 'id<TAB>sentence' (default: bundled corpus)")
    p_corpus.add_argument("--expect", metavar="PATH",
                          help="expectations TSV: 'id<TAB>count<TAB>formula;...'")

    p_eval = sub.add_parser(
        "eval", parents=[formatted], help="evaluate candidate robustness on a trajectory"
    )
    p_eval.add_argument("sentence")
    p_eval.add_argument("--trajectory", metavar="PATH", required=True,
                        help="CSV with header t,x,y")
    p_eval.add_argument("--regions", metavar="PATH", required=True,
                        help="regions file: 'name: xmin ymin xmax ymax' lines")

    p_explain = sub.add_parser(
        "explain", parents=[common], help="dump scored derivations per candidate"
    )
    p_explain.add_argument("sentence")
    p_explain.add_argument(
        "--n-best",
        type=_positive_int,
        default=DEFAULT_N_BEST,
        metavar="N",
        help=f"number of best derivations to list (default {DEFAULT_N_BEST})",
    )

    return parser


def _configure_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(message)s", stream=sys.stderr)


def _load_lexicon(args: argparse.Namespace) -> Lexicon:
    path = args.lexicon or os.environ.get(LEXICON_ENV_VAR)
    if path is None:
        return load_default_lexicon()
    log.info("loading lexicon from %s", path)
    with open(path, encoding="utf-8") as handle:
        return load_lexicon(handle)


def _require_sentence(args: argparse.Namespace) -> str:
    sentence = args.sentence
    if not sentence or not sentence.strip():
        raise UsageError("sentence must not be empty")
    return sentence


def _print_candidates(candidate_set: CandidateSet, output_format: str) -> None:
    if output_format == "json":
        print(json.dumps(candidate_set.to_dict(), indent=2, sort_keys=True))
    else:
        print(candidate_set.format_table())


def cmd_translate(args: argparse.Namespace) -> int:
    sentence = _require_sentence(args)
    lexicon = _load_lexicon(args)
    candidate_set = translate(sentence, lexicon)
    _print_candidates(candidate_set, args.format)
    return EXIT_OK


def _read_corpus(path: Optional[str]) -> list[tuple[int, str, str]]:
    """The ``(line number, id, sentence)`` rows of a corpus file."""
    if path is None:
        text = resources.files("ambistl.data").joinpath("corpus.tsv").read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    rows: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise ValueError(f"corpus line {lineno}: expected 'id<TAB>sentence'")
        sid, _, sentence = line.partition("\t")
        rows.append((lineno, sid.strip(), sentence.strip()))
    if not rows:
        raise ValueError("empty corpus file")
    return rows


def _read_expectations(path: str) -> dict[str, tuple[int, set[str]]]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    expected: dict[str, tuple[int, set[str]]] = {}
    for lineno, raw in enumerate(lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"expectations line {lineno}: expected 'id<TAB>count<TAB>formulas'")
        sid, count_text, formulas = parts
        sid, count_text = sid.strip(), count_text.strip()
        if sid in expected:
            raise ValueError(f"expectations line {lineno}: duplicate id {sid!r}")
        if not count_text.isdecimal():
            raise ValueError(
                f"expectations line {lineno}: count {count_text!r} is not a non-negative integer"
            )
        expected[sid] = (
            int(count_text),
            {f.strip() for f in formulas.split(";") if f.strip()},
        )
    if not expected:
        raise ValueError("empty expectations file")
    return expected


def cmd_corpus(args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(args)
    rows = _read_corpus(args.corpus_file)
    expected = _read_expectations(args.expect) if args.expect else None

    results: list[dict] = []
    mismatches: list[str] = []
    for lineno, sid, sentence in rows:
        try:
            candidate_set = translate(sentence, lexicon)
        except TRANSLATION_ERRORS as exc:
            print(f"{sid} (line {lineno}): translation failed: {exc}", file=sys.stderr)
            return EXIT_TRANSLATION
        formulas = candidate_set.formulas()
        results.append(
            {
                "id": sid,
                "sentence": sentence,
                "count": len(formulas),
                "formulas": formulas,
            }
        )
        if expected is not None:
            if sid not in expected:
                mismatches.append(f"{sid}: no expectation recorded")
                continue
            want_count, want_set = expected[sid]
            if len(formulas) != want_count or set(formulas) != want_set:
                mismatches.append(
                    f"{sid}: got {len(formulas)} candidate(s) {sorted(formulas)}, "
                    f"expected {want_count} {sorted(want_set)}"
                )

    if args.format == "json":
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        width = max(len(r["id"]) for r in results)
        for r in results:
            print(f"{r['id']:<{width}}  {r['count']}  {r['formulas'][0]}")

    if expected is not None:
        listed = {sid for _, sid, _ in rows}
        mismatches += [
            f"{sid}: expected, but not in the corpus" for sid in expected if sid not in listed
        ]
        if mismatches:
            for line in mismatches:
                print(f"MISMATCH {line}", file=sys.stderr)
            return EXIT_MISMATCH
        # In JSON mode stdout holds only the JSON document.
        summary = sys.stderr if args.format == "json" else sys.stdout
        print(f"all {len(results)} sentences match expectations", file=summary)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    # Local: the trajectory layer loads numpy, which no other command needs.
    from .trajectory import evaluate_candidates, load_trajectory

    sentence = _require_sentence(args)
    lexicon = _load_lexicon(args)
    with open(args.regions, encoding="utf-8") as handle:
        regions = load_regions(handle)
    with open(args.trajectory, encoding="utf-8", newline="") as handle:
        trajectory = load_trajectory(handle)
    candidate_set = translate(sentence, lexicon)
    report = evaluate_candidates(candidate_set, trajectory, regions)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_table())
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    sentence = _require_sentence(args)
    lexicon = _load_lexicon(args)
    failure = None
    try:
        candidate_set, reports = analyze(sentence, lexicon, args.n_best)
    except EmptyCandidateSetError as exc:  # list the discarded derivations, then fail
        total = exc.n_derivations
        candidate_set, reports, failure = CandidateSet(sentence, (), total, total), exc.reports, exc

    print(f"sentence: {sentence}")
    print(
        f"{candidate_set.n_derivations} derivation(s), "
        f"{candidate_set.discarded_count} discarded, "
        f"{len(candidate_set.candidates)} candidate(s)"
    )
    if len(reports) < candidate_set.n_derivations:
        print(f"listing the {len(reports)} best of {candidate_set.n_derivations} derivations")
    for rank, cand in enumerate(candidate_set.candidates, start=1):
        print()
        print(f"candidate {rank}  p={cand.probability:.6f}  {cand.text}")
        for report in reports:
            if report.formula == cand.formula:
                print(f"  derivation {report.index}  score={report.score:.4f}")
                print(pretty_derivation(report.root, indent=2))
                print(f"    meaning: {format_term(report.meaning)}")
    discarded = [r for r in reports if r.error is not None]
    if discarded:
        print()
        print(f"discarded ({len(discarded)}):")
        for report in discarded:
            print(f"  derivation {report.index}  score={report.score:.4f}  ill-formed: {report.error}")
    if failure is not None:
        raise failure
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    _configure_logging(args.verbose)

    handlers = {
        "translate": cmd_translate,
        "corpus": cmd_corpus,
        "eval": cmd_eval,
        "explain": cmd_explain,
    }
    try:
        try:
            return handlers[args.command](args)
        finally:
            sys.stdout.flush()  # a closed stdout fails here, not at the interpreter's exit
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except TRANSLATION_ERRORS as exc:
        print(f"translation failed: {exc}", file=sys.stderr)
        return EXIT_TRANSLATION
    except (LexiconError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError:
        # Point stdout at the null device, so the interpreter's final flush
        # of what the buffer still holds does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
