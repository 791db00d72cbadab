"""Traceable SQL pattern counting: which syntactic constructs appear in a
corpus, and how their prevalence shifts between two corpora (typically a
model's predictions before and after fine-tuning).

Matching is AST-based, so COUNT( * ) with odd spacing still matches
count_star and aliased expressions do not fool count_attr. The counting
unit is queries containing a pattern at least once, not total occurrences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .corpus import Corpus, map_distinct_sql
from .errors import SpecMismatchError
from .parsing import Node, ParseError, parse_sql


def _func_name(node: Node) -> str:
    for child in node.children:
        if child.token is not None:
            return child.token.upper
    return ""


def _func_args(node: Node) -> list[Node]:
    return [child for child in node.children if child.token is None]


def _select_items(tree: Node):
    """Yield the select_item lists of every SELECT core in the tree."""
    for select_list in tree.find_all("select_list"):
        yield [child for child in select_list.children if child.label == "select_item"]


def _item_expr(item: Node) -> Node:
    return item.children[0]


def _is_sum(expr: Node) -> bool:
    return expr.label == "func" and _func_name(expr) == "SUM"


def _is_plain_column(expr: Node) -> bool:
    return expr.label == "col"


def match_attr_comma_sum(tree: Node) -> bool:
    """A select list with a plain column followed by a SUM aggregate
    (grouped-total shape: SELECT region, SUM(amount) ...)."""
    for items in _select_items(tree):
        exprs = [_item_expr(item) for item in items]
        seen_column = False
        for expr in exprs:
            if _is_plain_column(expr):
                seen_column = True
            elif seen_column and _is_sum(expr):
                return True
    return False


def match_bare_sum(tree: Node) -> bool:
    """A select list with a SUM aggregate and no plain-column sibling
    (global-total shape: SELECT SUM(amount) ...). Exclusive with
    attr_comma_sum by construction."""
    if match_attr_comma_sum(tree):
        return False
    for items in _select_items(tree):
        exprs = [_item_expr(item) for item in items]
        if any(_is_sum(e) for e in exprs) and not any(_is_plain_column(e) for e in exprs):
            return True
    return False


def match_count_star(tree: Node) -> bool:
    for func in tree.find_all("func"):
        if _func_name(func) == "COUNT":
            args = _func_args(func)
            if len(args) == 1 and args[0].label == "star":
                return True
    return False


def match_count_attr(tree: Node) -> bool:
    """COUNT over a single column reference, COUNT(DISTINCT col) included."""
    for func in tree.find_all("func"):
        if _func_name(func) == "COUNT":
            args = _func_args(func)
            if len(args) == 1 and args[0].label == "col":
                return True
    return False


def match_case_when(tree: Node) -> bool:
    return any(True for _ in tree.find_all("case"))


def match_iif(tree: Node) -> bool:
    return any(_func_name(func) == "IIF" for func in tree.find_all("func"))


def match_union(tree: Node) -> bool:
    for op in tree.find_all("setop_op"):
        if op.children and op.children[0].token.upper == "UNION":
            return True
    return False


def match_subquery(tree: Node) -> bool:
    """Any nested SELECT: scalar subqueries, IN/EXISTS bodies, derived
    tables and CTE bodies all count."""
    return any(True for _ in tree.find_all("subquery"))


@dataclass(frozen=True)
class PatternSpec:
    id: str
    match: Callable[[Node], bool]


DEFAULT_PATTERNS: tuple[PatternSpec, ...] = (
    PatternSpec("attr_comma_sum", match_attr_comma_sum),
    PatternSpec("bare_sum", match_bare_sum),
    PatternSpec("count_star", match_count_star),
    PatternSpec("count_attr", match_count_attr),
    PatternSpec("case_when", match_case_when),
    PatternSpec("iif", match_iif),
    PatternSpec("union_op", match_union),
    PatternSpec("subquery", match_subquery),
)


@dataclass
class PatternCounts:
    """Per-pattern counts of queries matching at least once; parse failures
    are non-matches but reported here."""

    corpus_name: str
    counts: dict[str, int]
    parse_failures: int = 0


def count_patterns(corpus: Corpus, specs: tuple[PatternSpec, ...] = DEFAULT_PATTERNS,
                   memo: dict | None = None) -> PatternCounts:
    """Count the records that match each spec, parsing and matching each
    distinct SQL string once.

    ``memo`` is a run memo shared with the other calls of one run (see
    map_distinct_sql): a string matched against the same specs for an
    earlier corpus is not parsed again. The memo keeps the matching ids,
    never the tree, and the counts are the same with or without it.
    """
    specs = tuple(specs)
    ids = [spec.id for spec in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("pattern ids must be unique")

    def matching_ids(sql: str) -> tuple[str, ...]:
        tree = parse_sql(sql)
        return tuple(spec.id for spec in specs if spec.match(tree))

    counts = {spec.id: 0 for spec in specs}
    failures = 0
    for result in map_distinct_sql(corpus, matching_ids, memo, ("patterns", specs)):
        if isinstance(result, ParseError):
            failures += 1
        else:
            for pattern_id in result:
                counts[pattern_id] += 1
    return PatternCounts(corpus_name=corpus.name, counts=counts, parse_failures=failures)


def diff_pattern_counts(before: PatternCounts, after: PatternCounts) -> dict[str, dict]:
    """Per-pattern before/after/delta/direction table."""
    if set(before.counts) != set(after.counts):
        raise SpecMismatchError(
            f"pattern id sets differ: {sorted(before.counts)} vs {sorted(after.counts)}")
    diff: dict[str, dict] = {}
    for pattern_id, b in before.counts.items():
        a = after.counts[pattern_id]
        delta = a - b
        direction = "flat" if delta == 0 else ("up" if delta > 0 else "down")
        diff[pattern_id] = {"before": b, "after": a, "delta": delta,
                            "direction": direction}
    return diff
