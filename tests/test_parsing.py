import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from sqlalign.errors import ParseError
from sqlalign.parsing import (
    SCHEMA,
    STRUCTURAL,
    normalize_sql,
    parse_sql,
    tokenize,
)

QUERY_ZOO = [
    "SELECT 1",
    "SELECT * FROM t",
    "SELECT a, b FROM t WHERE c = 'x' AND d >= 2.5",
    "SELECT t.a FROM db.t WHERE t.b <> 3",
    "SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1",
    "SELECT a FROM t ORDER BY b DESC, c ASC LIMIT 10 OFFSET 5",
    "SELECT DISTINCT a FROM t1 JOIN t2 ON t1.x = t2.x LEFT OUTER JOIN t3 USING (k)",
    "SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END FROM t",
    "SELECT CAST(a AS VARCHAR(20)) FROM t",
    "SELECT CAST(a AS DOUBLE PRECISION) FROM t",
    "SELECT SUM(a) FILTER (WHERE b = 1) FROM t",
    "SELECT RANK() OVER (PARTITION BY a ORDER BY b ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM t",
    "SELECT a FROM t WHERE b IN (1, 2, 3) AND c NOT IN (SELECT c FROM u)",
    "SELECT a FROM t WHERE b BETWEEN 1 AND 10 AND c NOT LIKE '%x%'",
    "SELECT a FROM t1 UNION ALL SELECT b FROM t2 EXCEPT SELECT c FROM t3",
    "WITH w(x, y) AS (SELECT a, b FROM t) SELECT x FROM w",
    "SELECT `odd name`, [bracket col], \"quoted\" FROM `tab le`",
    "SELECT -x, +y, ~z FROM t WHERE a = -5",
    "SELECT a || 'suffix' FROM t WHERE b % 2 = 0",
    "SELECT a FROM t WHERE b IS NOT NULL AND c IS NULL",
    "SELECT EXTRACT(MONTH FROM d) FROM t WHERE d > CURRENT_DATE - INTERVAL '3 months'",
    "SELECT IIF(a > 0, 'pos', 'neg') FROM t",
    "SELECT a COLLATE NOCASE FROM t ORDER BY a COLLATE NOCASE",
    "SELECT x FROM (SELECT x FROM t ORDER BY x LIMIT 5) s WHERE x > ?",
    "SELECT a FROM t WHERE name = :who",
    "select count(distinct a) from t where exists (select 1 from u)",
]


@pytest.mark.parametrize("sql", QUERY_ZOO)
def test_roundtrip_serialization(sql):
    tree = parse_sql(sql)
    assert tree.serialize() == normalize_sql(sql)


@pytest.mark.parametrize("sql", QUERY_ZOO)
def test_every_token_has_exactly_one_role(sql):
    for node in parse_sql(sql).token_nodes():
        assert node.role in (STRUCTURAL, SCHEMA)
        assert not node.children


def test_normalize_strips_comments_and_trailing_semicolons():
    sql = "SELECT a -- pick a\nFROM t /* the table */ ; ;"
    assert normalize_sql(sql) == "SELECT a FROM t"


def test_tokenize_positions_point_into_source():
    sql = "SELECT a FROM t"
    for tok in tokenize(sql):
        assert sql[tok.pos : tok.pos + len(tok.text)] == tok.text


def test_string_literal_keeps_quotes_and_escapes():
    toks = tokenize("SELECT 'it''s' FROM t")
    assert toks[1].text == "'it''s'"
    assert toks[1].kind == "string"


@pytest.mark.parametrize("sql", [
    "SELECT FROM WHERE",
    "SELECT",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t GROUP a",
    "SELECT (a FROM t",
    "SELECT a, FROM t",
    "SELECT a FROM t; SELECT b FROM u",
    "SELECT 'unterminated FROM t",
    "DROP TABLE t",
    "INSERT INTO t VALUES (1)",
    "SELECT a FROM t WHERE b = 1 extra garbage ) (",
    "SELECT CAST(a) FROM t",
    "SELECT CASE a THEN 1 END FROM t",
    "SELECT ²",
    "SELECT " + "(" * 3000 + "1" + ")" * 3000,
    "   ",
    "-- only a comment",
])
def test_invalid_sql_raises_parse_error(sql):
    with pytest.raises(ParseError) as err:
        parse_sql(sql)
    assert isinstance(err.value.position, int)
    assert err.value.position >= 0


def test_subquery_nodes_only_for_nested_selects():
    assert not list(parse_sql("SELECT a FROM t").find_all("subquery"))
    assert list(parse_sql("SELECT a FROM (SELECT a FROM t) s").find_all("subquery"))
    # compound arms are not subqueries
    assert not list(parse_sql("SELECT a FROM t UNION SELECT b FROM u").find_all("subquery"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       skeleton=st.sampled_from(corpusgen.SKELETONS + corpusgen.FAR_SKELETONS))
def test_roundtrip_on_generated_queries(seed, skeleton):
    sql = corpusgen.make_query(random.Random(seed), skeleton=skeleton)
    assert parse_sql(sql).serialize() == normalize_sql(sql)
