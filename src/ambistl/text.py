"""The text layer every reader shares: line breaking and token scanning.

The line-based files (lexicon, regions, trajectories, corpus and
expectations) are broken into lines by :func:`lines`, and the three small
expression languages (lexical templates, CCG categories and STL formulas)
are split into tokens by :func:`scan`.  This module does not import numpy.
"""

from __future__ import annotations

import io
import re
from typing import IO, Union

TextSource = Union[str, IO[str]]

# Tried in order at each position: a run of decimal digits, a run of word
# characters, any other single non-space character.  Whitespace matches
# none of them, so findall skips it.
_TOKEN = re.compile(r"\d+|\w+|\S")


def lines(source: TextSource) -> io.StringIO:
    """The source's lines, broken at ``\\n``, ``\\r`` and ``\\r\\n`` only, as in a
    file opened with ``newline=""``; a stream is read whole.  One leading
    byte-order mark (U+FEFF, as spreadsheet "CSV UTF-8" exports write it)
    is dropped."""
    text = source if isinstance(source, str) else source.read()
    return io.StringIO(text.removeprefix("\ufeff"), newline="")


def scan(text: str, punctuation: str, error: type[Exception]) -> list[str]:
    """Split ``text`` on whitespace into tokens.

    A token is one character of ``punctuation``, a run of decimal digits
    (``str.isdecimal``, the digits ``int`` reads) or an identifier: a letter
    or ``_``, then letters, digits or ``_``.  Any other character raises
    ``error``.
    """
    tokens = _TOKEN.findall(text)
    for token in tokens:
        head = token[0]
        if not (head.isalpha() or head == "_" or head.isdecimal() or head in punctuation):
            raise error(f"unexpected character {head!r}")
    return tokens
