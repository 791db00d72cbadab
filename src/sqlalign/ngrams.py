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

from .errors import EmptyDistributionError
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


def _tokens_of(template: StructuralTemplate | Sequence[str]) -> tuple[str, ...]:
    if isinstance(template, StructuralTemplate):
        return template.tokens
    return tuple(template)


def extract_ngrams(template: StructuralTemplate | Sequence[str], l_max: int) -> list[NGram]:
    """All contiguous windows of 1..min(l_max, len) tokens, unfiltered.

    A template of length L yields max(0, L - n + 1) windows of order n.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    tokens = _tokens_of(template)
    length = len(tokens)
    grams: list[NGram] = []
    for n in range(1, min(l_max, length) + 1):
        for start in range(length - n + 1):
            grams.append(tokens[start : start + n])
    return grams


def is_valid_ngram(gram: NGram, keywords: frozenset[str] | set[str] = SQL_KEYWORDS) -> bool:
    """Keep an n-gram iff it has a keyword, no comma on either end, and
    equal numbers of opening and closing parentheses."""
    if not keywords:
        raise ValueError("keyword set must be non-empty")
    if not gram or gram[0] == "," or gram[-1] == ",":
        return False
    if gram.count("(") != gram.count(")"):
        return False
    return any(tok in keywords for tok in gram)


def build_distribution(
    templates: Iterable[StructuralTemplate | Sequence[str]],
    l_max: int = DEFAULT_L_MAX,
    source_label: str = "",
    keywords: frozenset[str] | set[str] = SQL_KEYWORDS,
) -> NGramDistribution:
    """Pool valid n-grams of all templates into one frequency distribution.

    Counting is per occurrence: duplicate templates contribute duplicate
    counts. Merging is plain integer addition, so the result does not
    depend on template order.
    """
    counts: Counter[NGram] = Counter()
    for template in templates:
        for gram in extract_ngrams(template, l_max):
            if is_valid_ngram(gram, keywords):
                counts[gram] += 1
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def read_distribution(path) -> NGramDistribution:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    counts = {tuple(key.split(" ")): int(v) for key, v in payload["counts"].items()}
    total = sum(counts.values())
    if total == 0:
        raise EmptyDistributionError(f"distribution file {path} has no counts")
    return NGramDistribution(counts=counts, total=total, l_max=int(payload["l_max"]),
                             source_label=payload.get("source_label", ""))
