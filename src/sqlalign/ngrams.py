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
from bisect import bisect_left
from collections import Counter
from typing import Iterable, Sequence

from ._value import Value
from .errors import EmptyDistributionError, FormatError
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
    windows k times, and it is scanned once. Only the surviving windows
    are visited: from each start, the ends that balance its parentheses
    are looked up by bisection. Merging is plain integer addition, so the
    result does not depend on template order.
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
        # Window start..end is balanced iff balance[start] == balance[end + 1],
        # where balance[i] counts "(" minus ")" in tokens[:i]. So the valid
        # ends of a start are the ends after its balance, grouped by it,
        # from its first keyword on and short of start + l_max.
        starts, stops = [], []  # token i is text[starts[i]:stops[i]]
        balance = [0]
        ends_after: dict[int, list[int]] = {}
        pos = 0
        for end, token in enumerate(tokens):
            starts.append(pos)
            pos += len(token)
            stops.append(pos)
            pos += 1
            depth = balance[-1] + (token == "(") - (token == ")")
            balance.append(depth)
            if token != ",":
                ends_after.setdefault(depth, []).append(end)
        first_keyword = [length] * (length + 1)
        for i in range(length - 1, -1, -1):
            first_keyword[i] = i if tokens[i] in SQL_KEYWORDS else first_keyword[i + 1]
        for start in range(length):
            ends = ends_after.get(balance[start])
            if ends is None or tokens[start] == ",":
                continue
            begin = starts[start]
            lo = bisect_left(ends, first_keyword[start])
            for end in ends[lo:bisect_left(ends, start + l_max, lo)]:
                gram = text[begin:stops[end]]
                counts[gram] = get(gram, 0) + multiplicity
    total = sum(counts.values())
    if total == 0:
        raise EmptyDistributionError("no n-grams survived filtering")
    return NGramDistribution(counts=counts, total=total, l_max=l_max,
                             source_label=source_label)


def write_distribution(dist: NGramDistribution, path) -> None:
    """Persist a distribution as a JSON map with lexicographically sorted
    n-gram keys (sort_keys sorts the counts map too)."""
    payload = {
        "l_max": dist.l_max,
        "source_label": dist.source_label,
        "total": dist.total,
        "counts": dist.counts,
    }
    # Encoded before the file is opened, so text that is not encodable (a
    # lone surrogate in source_label) leaves no truncated file behind.
    text = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def read_distribution(path) -> NGramDistribution:
    """Load a file written by write_distribution. Anything else raises
    FormatError naming the path: not JSON, not an object, no integer l_max
    of at least 1, no counts map, a count that is not an integer of at
    least 1, or a key that build_distribution cannot produce (an empty
    token, more than l_max tokens, or a window its filter drops)."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"distribution file {path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        payload = {}
    counts, l_max = payload.get("counts"), payload.get("l_max")
    if (not isinstance(counts, dict) or type(l_max) is not int or l_max < 1
            or any(type(v) is not int or v < 1 for v in counts.values())):
        raise FormatError(f"distribution file {path} is not an object with an "
                          "integer l_max and integer counts of at least 1")
    for key in counts:
        tokens = key.split(" ")
        if ("" in tokens or len(tokens) > l_max or tokens[0] == "," or tokens[-1] == ","
                or tokens.count("(") != tokens.count(")") or SQL_KEYWORDS.isdisjoint(tokens)):
            raise FormatError(f"distribution file {path} has the key {key!r}, which "
                              f"is not a valid n-gram of at most {l_max} tokens")
    total = sum(counts.values())
    if total == 0:
        raise EmptyDistributionError(f"distribution file {path} has no counts")
    return NGramDistribution(counts=counts, total=total, l_max=l_max,
                             source_label=payload.get("source_label", ""))
