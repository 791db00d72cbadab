"""Filtered n-gram distributions over structural templates.

Every contiguous token window of length 1..l_max is a candidate n-gram; a
candidate is kept only if it contains at least one SQL keyword, does not
begin or end with a comma, and has equal counts of "(" and ")". Counts of
all surviving windows, all orders pooled together, form one distribution
per query set.

An n-gram is the string of its tokens joined by single spaces, the same
string that keys a distribution file. Each surviving window is cut from
its template's canonical text at precomputed token offsets, so counting
hashes one string slice per window and creates no tuple.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, Sequence

from ._value import Value
from .errors import EmptyDistributionError
from .keywords import SQL_KEYWORDS
from .templates import StructuralTemplate

# An n-gram is its template tokens joined by single spaces; its order is
# its number of tokens.
NGram = str

DEFAULT_L_MAX = 15


class NGramDistribution(Value):
    """Pooled frequencies of valid n-grams from one template corpus."""

    _fields = ("counts", "total", "l_max", "source_label")

    def __init__(self, counts: dict[NGram, int], total: int, l_max: int,
                 source_label: str = ""):
        self.counts = counts
        self.total = total
        self.l_max = l_max
        self.source_label = source_label


def build_distribution(
    templates: Iterable[StructuralTemplate | Sequence[str]],
    l_max: int = DEFAULT_L_MAX,
    source_label: str = "",
) -> NGramDistribution:
    """Pool the valid n-grams of all templates into one frequency distribution.

    Every window of 1..l_max tokens is a candidate. Counting is per
    occurrence: a template that occurs k times contributes each of its
    windows k times, and it is scanned once. Merging is plain integer
    addition, so the result does not depend on template order.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    distinct = Counter(t.tokens if isinstance(t, StructuralTemplate) else tuple(t)
                       for t in templates)
    counts: dict[NGram, int] = {}
    get = counts.get
    for tokens, multiplicity in distinct.items():
        length = len(tokens)
        text = " ".join(tokens)
        if length and text.count(" ") != length - 1:
            # one window key would stand for two different token sequences
            raise ValueError(f"template token holds a space: {text!r}")
        # Window start..end is balanced iff the balance after token end
        # (count of "(" minus ")" up to it) equals the balance before
        # start. after[end] is None where no window ends: at a comma.
        starts, stops = [], []  # token i is text[starts[i]:stops[i]]
        after: list[int | None] = []
        pos = depth = 0
        for token in tokens:
            starts.append(pos)
            pos += len(token)
            stops.append(pos)
            pos += 1
            depth += (token == "(") - (token == ")")
            after.append(None if token == "," else depth)
        # From the last start back to the first, depth steps back to the
        # balance before start, and first_keyword is the first keyword at
        # or after it: no valid window ends before it.
        first_keyword = length
        for start in range(length - 1, -1, -1):
            token = tokens[start]
            depth -= (token == "(") - (token == ")")
            if token in SQL_KEYWORDS:
                first_keyword = start
            if token == ",":
                continue
            begin = starts[start]
            for end in range(first_keyword, min(length, start + l_max)):
                if after[end] == depth:
                    gram = text[begin:stops[end]]
                    counts[gram] = get(gram, 0) + multiplicity
    total = sum(counts.values())
    if total == 0:
        raise EmptyDistributionError("no n-grams survived filtering")
    return NGramDistribution(counts=counts, total=total, l_max=l_max,
                             source_label=source_label)


def write_distribution(dist: NGramDistribution, path) -> None:
    """Persist a distribution as a JSON object with sorted keys, the n-gram
    keys of its counts map included, indented by two spaces a level."""
    # json.dumps(payload, indent=2, sort_keys=True) would write the same
    # text, but indent makes it use its pure-Python encoder. The counts map
    # goes through the C encoder instead, its items split by separators that
    # hold the newline and indent, and is set into the fixed outer object.
    counts = json.dumps(dist.counts, ensure_ascii=False, sort_keys=True,
                        separators=(",\n    ", ": "))
    if dist.counts:
        counts = "{\n    " + counts[1:-1] + "\n  }"
    text = (f'{{\n  "counts": {counts},\n  "l_max": {json.dumps(dist.l_max)},\n'
            f'  "source_label": {json.dumps(dist.source_label, ensure_ascii=False)},\n'
            f'  "total": {json.dumps(dist.total)}\n}}\n')
    # Encoded before the file is opened, so text that is not encodable (a
    # lone surrogate in source_label) leaves no truncated file behind.
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
