"""Traceable SQL pattern counting: which syntactic constructs appear in a
corpus, and how their prevalence shifts between two corpora (typically a
model's predictions before and after fine-tuning).

Matching is AST-based, so COUNT( * ) with odd spacing still matches
count_star and aliased expressions do not fool count_attr. The counting
unit is queries containing a pattern at least once, not total occurrences.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ._value import Value
from .corpus import SqlCorpus, map_distinct_sql
from .errors import SpecMismatchError
from .parsing import Node, parse_sql, query_tokens, shape_key


def _func_name(node: Node) -> str:
    # a func node's first child is its name token, or EXTRACT's keyword
    return node.children[0].upper


def _select_exprs(tree: Node):
    """Yield the item expressions of the select list of every SELECT core
    in the tree."""
    for select_list in tree.find_all("select_list"):
        yield [item.children[0] for item in select_list.children if isinstance(item, Node)]


def _is_sum(expr: Node) -> bool:
    return expr.label == "func" and _func_name(expr) == "SUM"


def _is_plain_column(expr: Node) -> bool:
    return expr.label == "col"


def _column_then_sum(exprs: list[Node]) -> bool:
    """A plain column followed by a SUM aggregate: the grouped-total shape
    of one select list."""
    seen_column = False
    for expr in exprs:
        if _is_plain_column(expr):
            seen_column = True
        elif seen_column and _is_sum(expr):
            return True
    return False


def match_attr_comma_sum(tree: Node) -> bool:
    """A select list with a plain column followed by a SUM aggregate
    (grouped-total shape: SELECT region, SUM(amount) ...)."""
    return any(_column_then_sum(exprs) for exprs in _select_exprs(tree))


def match_bare_sum(tree: Node) -> bool:
    """A select list with a SUM aggregate and no plain-column sibling
    (global-total shape: SELECT SUM(amount) ...). Exclusive with
    attr_comma_sum by construction."""
    found = False
    for exprs in _select_exprs(tree):
        if _column_then_sum(exprs):
            return False
        if any(_is_sum(e) for e in exprs) and not any(_is_plain_column(e) for e in exprs):
            found = True
    return found


def _has_count_of(tree: Node, label: str) -> bool:
    """A one-argument COUNT whose argument is labelled ``label``."""
    for func in tree.find_all("func"):
        if _func_name(func) == "COUNT":
            args = [child for child in func.children if isinstance(child, Node)]
            if len(args) == 1 and args[0].label == label:
                return True
    return False


def match_count_star(tree: Node) -> bool:
    return _has_count_of(tree, "star")


def match_count_attr(tree: Node) -> bool:
    """COUNT over a single column reference, COUNT(DISTINCT col) included."""
    return _has_count_of(tree, "col")


def match_case_when(tree: Node) -> bool:
    return any(True for _ in tree.find_all("case"))


def match_iif(tree: Node) -> bool:
    return any(_func_name(func) == "IIF" for func in tree.find_all("func"))


def match_union(tree: Node) -> bool:
    return any(op.children[0].upper == "UNION" for op in tree.find_all("setop_op"))


def match_subquery(tree: Node) -> bool:
    """Any nested SELECT: scalar subqueries, IN/EXISTS bodies, derived
    tables and CTE bodies all count."""
    return any(True for _ in tree.find_all("subquery"))


class PatternSpec(NamedTuple):
    """``match`` takes the root Node that parse_sql returns, whose leaves
    are the query's Tokens."""
    id: str
    match: Callable[[Node], bool]


# Each default spec reads node labels and the ``kind`` and ``upper`` of the
# tokens at the root's ``positions``, never their ``text`` and never a
# schema leaf: count_patterns matches one tree per query shape and template.
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


class PatternCounts(Value):
    """Per-pattern counts of queries matching at least once; parse failures
    are non-matches but reported here."""

    _fields = ("corpus_name", "counts", "parse_failures")

    def __init__(self, corpus_name: str, counts: dict[str, int], parse_failures: int = 0):
        super().__init__(corpus_name, counts, parse_failures)


def _matching_ids(sql: str, shapes: dict, lexicon: dict) -> tuple[str, ...]:
    """The ids of DEFAULT_PATTERNS that the query matches: the patterns
    view's function for map_distinct_sql, parsing the query only when its
    shape or template is new to ``shapes`` (see count_patterns)."""
    tokens = query_tokens(sql, lexicon)
    shape = shape_key(tokens)
    entry = shapes.get(shape)
    tree = None
    if entry is None:
        tree = parse_sql(sql, tokens)
        entry = shapes[shape] = (tree.positions, {})
    positions, by_template = entry
    words = tuple([tokens[i].upper for i in positions])
    found = by_template.get(words)
    if found is None:
        if tree is None:
            tree = parse_sql(sql, tokens)
        found = by_template[words] = tuple(spec.id for spec in DEFAULT_PATTERNS
                                           if spec.match(tree))
    return found


def count_patterns(corpus: SqlCorpus, memo: dict | None = None) -> PatternCounts:
    """Count the records of the SQL column that match each of
    DEFAULT_PATTERNS, matching each distinct SQL string once and parsing
    it only when its shape or template is new.

    A query's shape_key fixes its tree's labels and ``positions``, and
    its template tokens the ``upper`` of the tokens there: all that a
    default spec reads. So the view's shape table keeps, in the entry form
    of templates.templatize, per shape key the positions and per template
    the pattern ids: ``(positions, {template tokens: ids})``. A query
    reads its template tokens at its shape's positions and its ids from
    there without a parse. A failure is not kept in it, so a string that
    fails is parsed again.

    ``memo`` is a run memo (see map_distinct_sql): under
    ``memo[_matching_ids]`` the view keeps the ids per string, its shape
    table and its lexicon, never a tree, and the counts are the same with
    or without it.
    """
    counts = {spec.id: 0 for spec in DEFAULT_PATTERNS}
    results, failures = map_distinct_sql(corpus, _matching_ids, memo)
    for ids_of_record in results:
        for pattern_id in ids_of_record:
            counts[pattern_id] += 1
    return PatternCounts(corpus_name=corpus.name, counts=counts, parse_failures=len(failures))


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
