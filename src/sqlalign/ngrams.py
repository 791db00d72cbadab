"""Filtered n-gram distributions over structural templates.

Every contiguous token window of length 1..l_max is a candidate n-gram; a
candidate is kept only if it contains at least one SQL keyword, does not
begin or end with a comma, and has equal counts of "(" and ")". Counts of
all surviving windows, all orders pooled together, form one distribution
per query set.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyDistributionError, FormatError
from .keywords import SQL_KEYWORDS
from .templates import StructuralTemplate

# An n-gram is a tuple of template tokens; its order is its length.
NGram = tuple[str, ...]

DEFAULT_L_MAX = 15


@dataclass
class NGramDistribution:
    """Pooled frequencies of valid n-grams from one template corpus."""

    counts: dict[NGram, int]
    total: int
    l_max: int
    source_label: str = ""


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
    counts: Counter[NGram] = Counter()
    for tokens, multiplicity in distinct.items():
        length = len(tokens)
        for start in range(length):
            if tokens[start] == ",":
                continue
            balance = 0  # "(" minus ")" so far
            keyword_seen = False
            for end in range(start, min(start + l_max, length)):
                token = tokens[end]
                if token == "(":
                    balance += 1
                elif token == ")":
                    balance -= 1
                elif token in SQL_KEYWORDS:
                    keyword_seen = True
                if balance == 0 and keyword_seen and token != ",":
                    counts[tokens[start : end + 1]] += multiplicity
    total = sum(counts.values())
    if total == 0:
        raise EmptyDistributionError("no n-grams survived filtering")
    return NGramDistribution(counts=dict(counts), total=total, l_max=l_max,
                             source_label=source_label)


def sorted_items(dist: NGramDistribution) -> list[tuple[str, int]]:
    """("token token token", count) pairs, sorted lexicographically for
    byte-stable export."""
    return sorted((" ".join(gram), count) for gram, count in dist.counts.items())


def write_distribution(dist: NGramDistribution, path) -> None:
    """Persist a distribution as a JSON map with lexicographically sorted
    n-gram keys."""
    payload = {
        "l_max": dist.l_max,
        "source_label": dist.source_label,
        "total": dist.total,
        "counts": dict(sorted_items(dist)),
    }
    # Encoded before the file is opened, so text that is not encodable (a
    # lone surrogate in source_label) leaves no truncated file behind.
    text = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def read_distribution(path) -> NGramDistribution:
    """Load a file written by write_distribution. Anything else (not JSON,
    not an object, no integer l_max, no counts map, a count that is not an
    integer) raises FormatError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"distribution file {path} is not JSON: {exc}") from exc
    counts = payload.get("counts") if isinstance(payload, dict) else None
    if (not isinstance(counts, dict) or type(payload.get("l_max")) is not int
            or any(type(v) is not int for v in counts.values())):
        raise FormatError(f"distribution file {path} is not an object with an "
                          "integer l_max and integer counts")
    counts = {tuple(key.split(" ")): v for key, v in counts.items()}
    total = sum(counts.values())
    if total == 0:
        raise EmptyDistributionError(f"distribution file {path} has no counts")
    return NGramDistribution(counts=counts, total=total, l_max=payload["l_max"],
                             source_label=payload.get("source_label", ""))
