import pytest

from sqlalign.corpus import Corpus, CorpusRecord
from sqlalign.errors import SpecMismatchError
from sqlalign.parsing import parse_sql
from sqlalign.patterns import (
    DEFAULT_PATTERNS,
    PatternCounts,
    PatternSpec,
    count_patterns,
    diff_pattern_counts,
    match_attr_comma_sum,
    match_bare_sum,
    match_count_attr,
    match_count_star,
)

# 20 queries with hand-tallied pattern memberships. The expected counts
# below were tallied manually from this list; they are the oracle.
FIXTURE = [
    # (sql, {matching pattern ids})
    ("SELECT region, SUM(amount) FROM investments GROUP BY region",
     {"attr_comma_sum"}),
    ("SELECT SUM(amount) FROM investments", {"bare_sum"}),
    ("SELECT COUNT(*) FROM transactions", {"count_star"}),
    ("SELECT COUNT(id) FROM transactions", {"count_attr"}),
    ("SELECT COUNT(DISTINCT id) FROM transactions", {"count_attr"}),
    ("SELECT SUM(CASE WHEN age < 18 THEN 1 ELSE 0 END) FROM people",
     {"bare_sum", "case_when"}),
    ("SELECT IIF(age < 18, 'minor', 'adult') FROM people", {"iif"}),
    ("SELECT name FROM t1 UNION SELECT name FROM t2", {"union_op"}),
    ("SELECT name FROM (SELECT name FROM people WHERE age > 21) sub",
     {"subquery"}),
    ("SELECT a.name, b.total FROM accounts a JOIN balances b ON a.id = b.id",
     set()),
    ("SELECT city, SUM(pop), COUNT(*) FROM cities GROUP BY city",
     {"attr_comma_sum", "count_star"}),
    # SUM before the plain column: neither the grouped-total nor the
    # global-total shape
    ("SELECT SUM(x), region FROM facts GROUP BY region", set()),
    ("SELECT COUNT(*), COUNT(email) FROM users", {"count_star", "count_attr"}),
    ("SELECT MAX(score) FROM games WHERE id IN (SELECT gid FROM finals)",
     {"subquery"}),
    ("SELECT CASE status WHEN 1 THEN 'on' ELSE 'off' END FROM devices",
     {"case_when"}),
    ("SELECT name FROM employees EXCEPT SELECT name FROM retired", set()),
    ("SELECT t.name FROM team t WHERE EXISTS (SELECT 1 FROM wins w WHERE w.tid = t.id)",
     {"subquery"}),
    ("SELECT label FROM items ORDER BY price DESC LIMIT 3", set()),
    ("SELECT dept, SUM(salary) FROM staff GROUP BY dept UNION SELECT org, SUM(budget) FROM orgs GROUP BY org",
     {"attr_comma_sum", "union_op"}),
    ("SELECT COUNT(*) FROM (SELECT * FROM logs UNION SELECT * FROM archive) u",
     {"count_star", "union_op", "subquery"}),
]

MANUAL_TALLY = {
    "attr_comma_sum": 3,
    "bare_sum": 2,
    "count_star": 4,
    "count_attr": 3,
    "case_when": 2,
    "iif": 1,
    "union_op": 3,
    "subquery": 4,
}


def fixture_corpus(sqls=None, name="fixture"):
    sqls = sqls if sqls is not None else [sql for sql, _ in FIXTURE]
    return Corpus(name=name,
                  records=tuple(CorpusRecord(sql=s) for s in sqls))


def test_fixture_tally_is_internally_consistent():
    tally = {pid: 0 for pid in MANUAL_TALLY}
    for _, memberships in FIXTURE:
        for pid in memberships:
            tally[pid] += 1
    assert tally == MANUAL_TALLY


@pytest.mark.parametrize("sql,expected", FIXTURE)
def test_per_query_memberships(sql, expected):
    tree = parse_sql(sql)
    matched = {spec.id for spec in DEFAULT_PATTERNS if spec.match(tree)}
    assert matched == expected


def test_counts_match_manual_tally():
    counts = count_patterns(fixture_corpus())
    assert counts.counts == MANUAL_TALLY
    assert counts.parse_failures == 0


def test_sum_patterns_are_mutually_exclusive():
    # per query, by construction, including multi-select queries
    mixed = ("SELECT dept, SUM(salary) FROM staff GROUP BY dept "
             "UNION SELECT SUM(budget) FROM orgs")
    tree = parse_sql(mixed)
    assert match_attr_comma_sum(tree)
    assert not match_bare_sum(tree)
    for sql, _ in FIXTURE:
        tree = parse_sql(sql)
        assert not (match_attr_comma_sum(tree) and match_bare_sum(tree))


def test_matching_is_ast_based_not_textual():
    assert match_count_star(parse_sql("SELECT COUNT ( * ) FROM t"))
    assert match_count_star(parse_sql("select count(*) from t"))
    # an aliased COUNT(*) is still COUNT(*), and the alias is not a column
    tree = parse_sql("SELECT COUNT(*) AS count_attr FROM t")
    assert match_count_star(tree)
    assert not match_count_attr(tree)
    # COUNT over an expression is not COUNT over a column
    assert not match_count_attr(parse_sql("SELECT COUNT(a + b) FROM t"))
    assert not match_count_attr(parse_sql("SELECT COUNT(1) FROM t"))


def test_parse_failures_count_as_non_matches():
    counts = count_patterns(fixture_corpus(
        ["SELECT COUNT(*) FROM t", "SELECT broken FROM", "x y z ("]))
    assert counts.parse_failures == 2
    assert counts.counts["count_star"] == 1


def test_duplicate_pattern_ids_rejected():
    spec = DEFAULT_PATTERNS[0]
    with pytest.raises(ValueError):
        count_patterns(fixture_corpus(["SELECT 1"]), specs=(spec, spec))


# -- diffing -------------------------------------------------------------

def test_diff_directions():
    before = PatternCounts("base", {"count_star": 141, "case_when": 4, "iif": 0})
    after = PatternCounts("sft", {"count_star": 0, "case_when": 33, "iif": 0})
    diff = diff_pattern_counts(before, after)
    assert diff["count_star"] == {"before": 141, "after": 0, "delta": -141,
                                  "direction": "down"}
    assert diff["case_when"] == {"before": 4, "after": 33, "delta": 29,
                                 "direction": "up"}
    assert diff["iif"]["direction"] == "flat"


def test_diff_identical_counts_all_flat():
    counts = count_patterns(fixture_corpus())
    diff = diff_pattern_counts(counts, counts)
    assert all(entry["direction"] == "flat" for entry in diff.values())


def test_diff_rejects_mismatched_spec_sets():
    before = PatternCounts("a", {"count_star": 1})
    after = PatternCounts("b", {"count_attr": 1})
    with pytest.raises(SpecMismatchError):
        diff_pattern_counts(before, after)


def test_pattern_specs_compare_and_hash_by_their_fields_and_are_frozen():
    spec = PatternSpec("count_star", match_count_star)
    assert spec == PatternSpec(id="count_star", match=match_count_star)
    assert hash(spec) == hash(PatternSpec("count_star", match_count_star))
    assert spec != PatternSpec("count_star", match_count_attr)
    with pytest.raises(AttributeError):
        spec.id = "other"
    counts = PatternCounts("c", {"count_star": 1})
    assert counts == PatternCounts("c", {"count_star": 1}, parse_failures=0)
    assert counts != PatternCounts("c", {"count_star": 1}, parse_failures=1)
