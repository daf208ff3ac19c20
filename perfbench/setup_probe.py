"""Time one cold set-up of ``ambistl`` in a fresh interpreter.

Set-up is ``import ambistl``, ``load_default_lexicon()`` and
``load_regions`` on the regions file, then translating each sentence
given on standard input as a JSON list (the ``monitor`` workload
translates its commands once, during set-up).  Prints the elapsed wall
time in seconds as JSON.  Run from the repository root:

    echo '[]' | python3 perfbench/setup_probe.py demos/data/regions.txt
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sentences = json.load(sys.stdin)
    start = perf_counter()
    import ambistl

    lexicon = ambistl.load_default_lexicon()
    with open(sys.argv[1], encoding="utf-8") as handle:
        ambistl.load_regions(handle)
    for sentence in sentences:
        ambistl.translate(sentence, lexicon)
    print(json.dumps({"setup_s": perf_counter() - start}))


if __name__ == "__main__":
    main()
