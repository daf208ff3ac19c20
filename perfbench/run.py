"""Benchmark of ``ambistl``: one workload per run, one caller, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload kstep --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
variant and prints the per-layer metrics.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "kstep", "monitor", "eval")
REQUIRED = (
    "src/ambistl/__init__.py",
    "src/ambistl/data/corpus.tsv",
    "src/ambistl/data/expectations.tsv",
    "demos/data/regions.txt",
    "tests/oracle.py",
)


def seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be positive")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed)
    parser.add_argument("--seconds", type=seconds, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: not a checkout of ambistl, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import harness
    from inputs import generate

    inputs = generate(args.workload, args.seed, ROOT)
    run = harness.run_traced if args.trace else harness.run_untraced
    run(inputs, args.seconds).print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
