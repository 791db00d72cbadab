import gc
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from sqlalign.errors import ParseError
from sqlalign.parsing import (
    MAX_NESTING,
    SCHEMA,
    STRUCTURAL,
    Node,
    parse_sql,
    tokenize,
)
from sqlalign.patterns import match_count_star

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


def _leaves(tree):
    return [n for n in tree.walk() if n.token is not None]


def _source_tokens(sql):
    """The tokens of sql without its trailing semicolons."""
    toks = tokenize(sql)
    while toks and toks[-1].kind == "semi":
        toks.pop()
    return toks


@pytest.mark.parametrize("sql", QUERY_ZOO)
def test_roundtrip_serialization(sql):
    # every token is exactly one leaf, in source order
    assert [n.token for n in _leaves(parse_sql(sql))] == _source_tokens(sql)


@pytest.mark.parametrize("sql", QUERY_ZOO)
def test_every_token_has_exactly_one_role(sql):
    tree = parse_sql(sql)
    for node in _leaves(tree):
        assert node.role in (STRUCTURAL, SCHEMA)
        assert not node.children
    # the template the parser records is the walk over its structural leaves
    assert tree.template == tuple(
        n.token.upper for n in _leaves(tree) if n.role == STRUCTURAL)


def test_normalize_strips_comments_and_trailing_semicolons():
    sql = "SELECT a -- pick a\nFROM t /* the table */ ; ;"
    leaves = [n.token for n in _leaves(parse_sql(sql))]
    assert leaves == _source_tokens(sql)
    assert [tok.text for tok in leaves] == ["SELECT", "a", "FROM", "t"]


def test_tokenize_positions_point_into_source():
    sql = "SELECT a FROM t"
    for tok in tokenize(sql):
        assert sql[tok.pos : tok.pos + len(tok.text)] == tok.text


# What may lie between two tokens: whitespace and comments, nothing else.
_GAP_RE = re.compile(r"(?:\s+|--[^\n]*|/\*.*?\*/)*", re.DOTALL)
_SQLISH = st.sampled_from("SELECTfromAND a_1$.,;()*'\"`[]-/+<>=!|%~?:@ \n\t\u00a0²")


@settings(max_examples=400, deadline=None)
@given(st.text(st.one_of(_SQLISH, st.characters()), max_size=40))
def test_tokens_cover_the_text_apart_from_whitespace_and_comments(text):
    try:
        toks = tokenize(text)
    except ParseError:
        return
    last_pos, end = -1, 0  # the previous token's start and end
    for tok in toks:
        assert last_pos < tok.pos and end <= tok.pos
        assert text[tok.pos : tok.pos + len(tok.text)] == tok.text
        assert _GAP_RE.fullmatch(text, end, tok.pos), (text[end:tok.pos], tok)
        assert tok.upper == (tok.text.upper() if tok.kind == "word" else tok.text)
        last_pos, end = tok.pos, tok.pos + len(tok.text)
    assert _GAP_RE.fullmatch(text, end), text[end:]


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


# The dialect gaps the README lists, with the message each one gives.
@pytest.mark.parametrize("sql, message", [
    ("SELECT a::int FROM t", "unexpected character ':'"),
    ("SELECT a FROM t WHERE b = $1", "unexpected character '$'"),
    ("SELECT a FROM t FETCH FIRST 5 ROWS ONLY",
     "unexpected token after end of query, found 'FETCH'"),
    ("SELECT a FROM t WHERE b IN ()", "expected expression, found ')'"),
])
def test_documented_dialect_gaps_fail_with_their_message(sql, message):
    with pytest.raises(ParseError) as err:
        parse_sql(sql)
    assert err.value.message == message


# Parser branches that the query zoo and the golden inputs do not reach.
@pytest.mark.parametrize("sql, template", [
    ("WITH RECURSIVE r AS (SELECT 1) SELECT * FROM r", "WITH RECURSIVE AS ( SELECT ) SELECT * FROM"),
    ("SELECT db.t.* FROM db.t", "SELECT * FROM"),
    ("SELECT a FROM t ORDER BY a DESC NULLS FIRST", "SELECT FROM ORDER BY DESC NULLS FIRST"),
    ("SELECT a FROM t WHERE * = 1", "SELECT FROM WHERE * ="),
    ("SELECT d + INTERVAL '1' DAY FROM t", "SELECT + INTERVAL DAY FROM"),
    ("SELECT SUM(a) OVER (ORDER BY b ROWS UNBOUNDED PRECEDING) FROM t",
     "SELECT SUM ( ) OVER ( ORDER BY ROWS UNBOUNDED PRECEDING ) FROM"),
    ("SELECT COUNT(t.*) FROM t", "SELECT COUNT ( * ) FROM"),
])
def test_rarely_taken_branches_give_their_template(sql, template):
    assert " ".join(parse_sql(sql).template) == template


def test_a_qualified_star_in_count_is_count_star():
    assert match_count_star(parse_sql("SELECT COUNT(t.*) FROM t"))


@pytest.mark.parametrize("sql, message", [
    ("WITH r (a, 1) AS (SELECT 1) SELECT * FROM r",
     "expected column name in CTE column list, found '1' (at offset 11)"),
    ("SELECT a AS FROM t", "expected alias name, found 'FROM' (at offset 12)"),
    ("SELECT EXTRACT(1 FROM d) FROM t", "expected date part in EXTRACT, found '1' (at offset 15)"),
])
def test_rarely_taken_error_branches_name_the_token(sql, message):
    with pytest.raises(ParseError) as err:
        parse_sql(sql)
    assert str(err.value) == message


# Query builders that nest one construct n levels deep.
NESTERS = {
    "parens": lambda n: "SELECT " + "(" * n + "1" + ")" * n,
    "paren_select": lambda n: "(" * n + "SELECT 1" + ")" * n,
    "in_subquery": lambda n: "SELECT a FROM t WHERE a IN (" * n + "SELECT 1" + ")" * n,
    "function_args": lambda n: "SELECT " + "f(" * n + "1" + ")" * n,
    "case": lambda n: "SELECT " + "CASE WHEN a THEN " * n + "1" + " END" * n,
}


def _outcome(sql):
    try:
        leaves = [n.token for n in _leaves(parse_sql(sql))]
    except ParseError as exc:
        return exc.message, exc.position
    assert leaves == _source_tokens(sql)
    return leaves


def _outcome_at_depth(sql, frames):
    return _outcome(sql) if frames == 0 else _outcome_at_depth(sql, frames - 1)


@pytest.mark.parametrize("nester", sorted(NESTERS))
def test_nesting_limit_does_not_depend_on_the_callers_stack(nester):
    queries = [NESTERS[nester](n) for n in range(1, MAX_NESTING + 3)]
    shallow = [_outcome(sql) for sql in queries]
    assert [_outcome_at_depth(sql, 200) for sql in queries] == shallow
    assert isinstance(shallow[0], list)  # one level parses
    assert shallow[-1][0] == "query nests too deeply"


def test_prefix_operator_chains_do_not_count_as_nesting():
    for sql in ("SELECT " + "NOT " * 3000 + "1", "SELECT " + "- " * 3000 + "1"):
        # the walk over the 3000-deep tree needs no interpreter stack either
        assert sum(1 for _ in parse_sql(sql).find_all("unary")) == 3000
        assert _outcome_at_depth(sql, 200) == _outcome(sql)


@pytest.mark.parametrize("sql", QUERY_ZOO)
def test_find_all_returns_the_filtered_walk(sql):
    tree = parse_sql(sql)
    labels = sorted({n.label for n in tree.walk()}) + ["no_such_label"]
    for node in tree.walk():  # every subtree, the root included
        for _ in range(2):  # the call that builds the index, then a cached one
            for label in labels:
                expected = [n for n in node.walk() if n.label == label]
                assert [id(n) for n in node.find_all(label)] == [id(n) for n in expected]


def test_find_all_index_keeps_no_reference_cycle():
    gc.disable()
    try:
        tree = parse_sql("SELECT a FROM t WHERE b IN (SELECT c FROM u)")
        assert list(tree.find_all(tree.label)) == [tree]
        subquery = next(tree.find_all("subquery"))
        assert list(subquery.find_all("col"))
        ref = weakref.ref(tree)
        del tree, subquery
        assert ref() is None
    finally:
        gc.enable()


def test_nodes_compare_by_their_fields_and_are_unhashable():
    tree = parse_sql("SELECT a FROM t")
    twin = parse_sql("SELECT  a FROM t")  # same tree, token positions aside
    assert tree != twin
    assert parse_sql("SELECT a FROM t") == tree
    leaf = Node("tok", [], tokenize("a")[0], SCHEMA)
    assert leaf == Node("tok", token=tokenize("a")[0], role=SCHEMA)
    assert leaf != Node("tok", [], tokenize("a")[0], STRUCTURAL)
    assert Node("x").children == [] and Node("x").children is not Node("x").children
    with pytest.raises(TypeError, match="unhashable"):
        hash(leaf)
    assert weakref.ref(leaf)() is leaf


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
    assert [n.token for n in _leaves(parse_sql(sql))] == _source_tokens(sql)
