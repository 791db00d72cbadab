import gc
import json
import random
import re
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from sqlalign import parsing
from sqlalign.corpus import SqlCorpus, templatize_corpus
from sqlalign.errors import ParseError
from sqlalign.parsing import (
    END,
    MAX_NESTING,
    SHAPE_VOCABULARY,
    Node,
    Token,
    parse_sql,
    query_tokens,
    shape_key,
    token_offsets,
    tokenize,
)
from sqlalign.patterns import match_count_star
from sqlalign.templates import derive_template, templatize

# The queries in two halves, so that a test renamed over them retires
# half of its ids at a time.
QUERY_ZOO_FIRST = [
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
]
QUERY_ZOO_SECOND = [
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
QUERY_ZOO = QUERY_ZOO_FIRST + QUERY_ZOO_SECOND


def _leaves(tree):
    """What the walk yields that is not an inner node: the leaf tokens."""
    return [n for n in tree.walk() if not isinstance(n, Node)]


def _source_tokens(sql):
    """The tokens of sql without its trailing semicolons."""
    toks = tokenize(sql)
    while toks and toks[-1].kind == "semi":
        toks.pop()
    return toks


@pytest.mark.parametrize("sql", QUERY_ZOO)
def test_leaves_are_the_source_tokens_in_order(sql):
    # every token is exactly one leaf, in source order
    assert _leaves(parse_sql(sql)) == _source_tokens(sql)


def _check_leaves_are_the_tokens(sql):
    toks = query_tokens(sql)
    tree = parse_sql(sql, toks)
    leaves = _leaves(tree)
    # each leaf is the parsed list's own token, in order, END aside
    assert len(leaves) == len(toks) - 1
    assert all(leaf is tok for leaf, tok in zip(leaves, toks))
    nodes = [n for n in tree.walk() if isinstance(n, Node)]
    assert all(node.children for node in nodes)
    # find_all by every label yields each inner node once, and no token
    found = [n for label in {n.label for n in nodes} for n in tree.find_all(label)]
    assert sorted(map(id, found)) == sorted(map(id, nodes))
    assert not list(tree.find_all("tok"))


@pytest.mark.parametrize("sql", QUERY_ZOO)
def test_the_leaves_are_the_query_tokens_themselves(sql):
    _check_leaves_are_the_tokens(sql)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       skeleton=st.sampled_from(corpusgen.SKELETONS + corpusgen.FAR_SKELETONS))
def test_the_leaves_of_generated_queries_are_their_tokens(seed, skeleton):
    _check_leaves_are_the_tokens(corpusgen.make_query(random.Random(seed), skeleton=skeleton))


@pytest.mark.parametrize("sql", QUERY_ZOO)
def test_every_token_has_exactly_one_role(sql):
    # the positions are strictly increasing leaf indices: a leaf is
    # structural when its index is among them, and a schema token otherwise
    tree = parse_sql(sql)
    leaves = _leaves(tree)
    assert all(isinstance(leaf, Token) for leaf in leaves)
    positions = tree.positions
    assert all(0 <= i < len(leaves) for i in positions)
    assert all(a < b for a, b in zip(positions, positions[1:]))
    # the template read from the leaves is the one read from the tokens
    assert derive_template(tree) == templatize(sql, {})


def test_comments_and_trailing_semicolons_leave_no_leaf():
    sql = "SELECT a -- pick a\nFROM t /* the table */ ; ;"
    leaves = _leaves(parse_sql(sql))
    assert leaves == _source_tokens(sql)
    assert [tok.text for tok in leaves] == ["SELECT", "a", "FROM", "t"]


def test_token_offsets_point_into_the_source():
    sql = "SELECT a FROM t"
    offsets = token_offsets(sql)
    assert offsets == [0, 7, 9, 14]
    for tok, pos in zip(tokenize(sql), offsets, strict=True):
        assert sql[pos : pos + len(tok.text)] == tok.text


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
    for tok, pos in zip(toks, token_offsets(text), strict=True):
        assert last_pos < pos and end <= pos
        assert text[pos : pos + len(tok.text)] == tok.text
        assert _GAP_RE.fullmatch(text, end, pos), (text[end:pos], tok)
        assert tok.upper == (tok.text.upper() if tok.kind == "word" else tok.text)
        last_pos, end = pos, pos + len(tok.text)
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
    ("SELECT a FROM t WHERE b = 0x10", "unexpected token after end of query, found 'x10'"),
    ("SELECT a FROM t WHERE b = X'ab'",
     "unexpected token after end of query, found \"'ab'\""),
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
    ("SELECT d + INTERVAL '1' DAY FROM t", "SELECT + INTERVAL DAY FROM"),
    ("SELECT SUM(a) OVER (ORDER BY b ROWS UNBOUNDED PRECEDING) FROM t",
     "SELECT SUM ( ) OVER ( ORDER BY ROWS UNBOUNDED PRECEDING ) FROM"),
    ("SELECT COUNT(t.*) FROM t", "SELECT COUNT ( * ) FROM"),
    ('SELECT "t".*, t.a.* FROM t', "SELECT * , * FROM"),
    ("WITH w(x, y) AS (SELECT a, b FROM t) SELECT x FROM w",
     "WITH AS ( SELECT , FROM ) SELECT FROM"),
    ("SELECT CAST(a AS VARCHAR(20)) FROM t", "SELECT CAST ( ) FROM"),
    ("SELECT CAST(a AS DECIMAL(10, 2)) FROM t", "SELECT CAST ( ) FROM"),
    ("SELECT CAST(a AS VARCHAR(MAX)) FROM t", "SELECT CAST ( ) FROM"),
    # A join is [NATURAL] [INNER | CROSS | (LEFT | RIGHT | FULL) [OUTER]] JOIN.
    ("SELECT a FROM t NATURAL LEFT OUTER JOIN u", "SELECT FROM NATURAL LEFT OUTER JOIN"),
    ("SELECT a FROM t FULL OUTER JOIN u ON a = b", "SELECT FROM FULL OUTER JOIN ON ="),
    ("SELECT a FROM t CROSS JOIN u", "SELECT FROM CROSS JOIN"),
    ("SELECT a FROM t NATURAL CROSS JOIN u", "SELECT FROM NATURAL CROSS JOIN"),
])
def test_rarely_taken_branches_give_their_template(sql, template):
    assert derive_template(parse_sql(sql)).canonical_text == template


def test_a_qualified_star_in_count_is_count_star():
    assert match_count_star(parse_sql("SELECT COUNT(t.*) FROM t"))


@pytest.mark.parametrize("sql, message", [
    ("WITH r (a, 1) AS (SELECT 1) SELECT * FROM r",
     "expected column name in CTE column list, found '1' (at offset 11)"),
    ("SELECT a AS FROM t", "expected alias name, found 'FROM' (at offset 12)"),
    ("SELECT EXTRACT(1 FROM d) FROM t", "expected date part in EXTRACT, found '1' (at offset 15)"),
    ("SELECT t.* AS x FROM t", "unexpected token after end of query, found 'AS' (at offset 11)"),
    ("SELECT t.* + 1 FROM t", "unexpected token after end of query, found '+' (at offset 11)"),
    # A bare "*" is a select item or COUNT's argument, never an expression.
    ("SELECT a FROM t WHERE * = 1", "expected expression, found '*' (at offset 22)"),
    ("SELECT 1 + * FROM t", "expected expression, found '*' (at offset 11)"),
    ("SELECT f(a, *) FROM t", "expected expression, found '*' (at offset 12)"),
    ("SELECT (*) FROM t", "expected expression, found '*' (at offset 8)"),
    ("SELECT a FROM t ORDER BY *", "expected expression, found '*' (at offset 25)"),
    ("SELECT -* FROM t", "expected expression, found '*' (at offset 8)"),
    ("SELECT COUNT(DISTINCT *) FROM t", "expected expression, found '*' (at offset 22)"),
    # A CTE column list is ( name (, name)* ).
    ("WITH t(a b) AS (SELECT 1) SELECT a FROM t",
     "expected ')' after CTE column list, found 'b' (at offset 9)"),
    ("WITH t() AS (SELECT 1) SELECT a FROM t",
     "expected column name in CTE column list, found ')' (at offset 7)"),
    ("WITH t(,) AS (SELECT 1) SELECT a FROM t",
     "expected column name in CTE column list, found ',' (at offset 7)"),
    # CAST type parameters are ( p (, p)* ), each a number or a word.
    ("SELECT CAST(a AS INT()) FROM t", "expected type parameter, found ')' (at offset 21)"),
    ("SELECT CAST(a AS VARCHAR(10 20)) FROM t",
     "expected ')' after type parameters, found '20' (at offset 28)"),
    ("SELECT CAST(a AS VARCHAR(10,)) FROM t", "expected type parameter, found ')' (at offset 28)"),
    ("SELECT CAST(a AS VARCHAR(", "expected ')' after type parameters (at offset 25)"),
    # No join prefix word repeats or follows one it cannot follow.
    ("SELECT a FROM t LEFT RIGHT JOIN u ON a = b",
     "expected JOIN, found 'RIGHT' (at offset 21)"),
    ("SELECT a FROM t NATURAL NATURAL JOIN u", "expected JOIN, found 'NATURAL' (at offset 24)"),
    ("SELECT a FROM t INNER OUTER JOIN u ON a = b",
     "expected JOIN, found 'OUTER' (at offset 22)"),
    ("SELECT a FROM t LEFT OUTER OUTER JOIN u ON a = b",
     "expected JOIN, found 'OUTER' (at offset 27)"),
])
def test_rarely_taken_error_branches_name_the_token(sql, message):
    with pytest.raises(ParseError) as err:
        parse_sql(sql)
    assert str(err.value) == message


# Each error keeps the message and offset it had when every token held
# its own offset. A token text repeats in most of them, and "/" is an
# operator in one query and opens an unterminated comment in another.
_ERRORS = [
    ("SELECT a FROM t t t", "unexpected token after end of query, found 't'", 18),
    ("SELECT a, a FROM a a a", "unexpected token after end of query, found 'a'", 21),
    ("SELECT a FROM ; ;", "expected table name", 17),  # END: the text's length
    ("SELECT a FROM t WHERE", "unexpected end of query", 21),
    ("SELECT " + "(" * 33 + "1" + ")" * 33, "query nests too deeply", 38),
    ("SELECT 'abc FROM t", "unterminated string literal", 7),
    ('SELECT "a FROM t', "unterminated quoted identifier", 7),
    ("SELECT a FROM [t", "unterminated bracketed identifier", 14),
    ("SELECT a /* x", "unterminated block comment", 9),
    ("SELECT a /* x */ FROM t /* y", "unterminated block comment", 24),
    ("SELECT a / b FROM t WHERE c = 1 /*", "unterminated block comment", 32),
    ("SELECT a FROM t WHERE b = $1", "unexpected character '$'", 26),
    ("SELECT ²  ", "unexpected character '²'", 7),
    (";", "query contains no tokens", 0),
]


@pytest.mark.parametrize("sql, message, position", _ERRORS)
def test_an_error_keeps_its_message_and_offset(sql, message, position):
    lexicon = {}
    for warm in ("SELECT a / b, 'x', [c] FROM t WHERE d = 1", sql, sql):
        try:
            parse_sql(warm, query_tokens(warm, lexicon))
        except ParseError as exc:
            assert warm == sql and (exc.message, exc.position) == (message, position)
        else:
            assert warm != sql
    assert all(tok.kind != "bad" for tok in lexicon.values())


# _TOKEN_RE as it was before words became its first alternative, kept
# here so that the scan is checked against an order it does not share.
_FROZEN_TOKEN_RE = re.compile(r"""
    (?: \s+ | --[^\n]* | /\*.*?\*/ )*
    (?: (?P<string> '[^']*(?:''[^']*)*'(?!') )
      | (?P<qident> "[^"]*(?:""[^"]*)*"(?!") | `[^`]*` | \[[^\]]*\] )
      | (?P<number> (?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)? )
      | (?P<word> [A-Za-z_][A-Za-z0-9_$]* )
      | (?P<dot> \. ) | (?P<comma> , ) | (?P<lparen> \( ) | (?P<rparen> \) ) | (?P<semi> ; )
      | (?P<param> \? | [:@][A-Za-z_][A-Za-z0-9_$]* )
      | (?P<op> <= | >= | <> | != | \|\| | == | [=<>+\-*%~] | /(?!\*) )
      | (?P<bad> .+ )
      | \Z )
""", re.VERBOSE | re.DOTALL)


def _fresh_scan(text):
    """(kind, text, upper) per token and the token offsets, by a finditer
    scan of _FROZEN_TOKEN_RE, or the (message, position) of its error."""
    tokens, offsets = [], []
    for m in _FROZEN_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            pos = m.start(kind)
            opened = parsing._UNTERMINATED.get(text[pos])
            return (f"unterminated {opened}" if opened
                    else f"unexpected character {text[pos]!r}"), pos
        if kind is not None:
            token = m[kind]
            tokens.append((kind, token, token.upper() if kind == "word" else token))
            offsets.append(m.start(kind))
    return tokens, offsets


def _assert_tokenizes_as_a_fresh_scan(text, shared_lexicon):
    """tokenize gives text the tokens, offsets or error of _fresh_scan,
    through shared_lexicon and without a lexicon."""
    expected = _fresh_scan(text)
    for lexicon in (shared_lexicon, None):
        try:
            tokens = tokenize(text, lexicon)
        except ParseError as exc:
            assert (exc.message, exc.position) == expected
            continue
        assert [(t.kind, t.text, t.upper) for t in tokens] == expected[0]
        assert token_offsets(text) == expected[1]
        if lexicon is not None:
            assert all(lexicon[t.text] is t for t in tokens)  # one Token per text
    assert all(tok.kind != "bad" for tok in shared_lexicon.values())


# Token texts and pieces of them, joined with no space between, so that
# they also run together, open literals and comments, and close them.
_LEXEMES = st.sampled_from([
    "SELECT", "from", "a", "B_1$", "COUNT", "(", ")", ",", ".", ";", "*", "/", "/*", "*/",
    "--", "\n", " ", "'", "''", "'x'", '"', '"q"', "`", "`b`", "[", "]", "1", "2.5", ".5",
    "1e3", "e", "?", ":p", "@v", ":", "=", "<", ">", "!", "|", "||", "-", "+", "%", "~",
    "$", "²", " ", "\t"])
_WARM_LEXICON = {}
for _sql in QUERY_ZOO + ["SELECT a / b, * FROM t -- x", "SELECT 'it''s' FROM t"]:
    tokenize(_sql, _WARM_LEXICON)


@settings(max_examples=500, deadline=None)
@given(st.lists(_LEXEMES, max_size=16).map("".join))
def test_a_shared_lexicon_tokenizes_as_a_fresh_scan(text):
    _assert_tokenizes_as_a_fresh_scan(text, _WARM_LEXICON)


with open(Path(__file__).with_name("parser_golden.jsonl"), encoding="utf-8") as _fh:
    GOLDEN_SQL = [json.loads(line)["sql"] for line in _fh]


def test_every_golden_input_tokenizes_as_a_fresh_scan():
    lexicon = {}
    for text in GOLDEN_SQL:
        _assert_tokenizes_as_a_fresh_scan(text, lexicon)


def test_each_token_carries_its_element_of_a_shape_key():
    assert Token._fields == ("kind", "text", "upper", "shape")
    assert parsing._END.shape == END
    lexicon = {}
    for sql in QUERY_ZOO + GOLDEN_SQL:
        try:
            tokens = query_tokens(sql, lexicon)
        except ParseError:
            continue
        assert shape_key(tokens) == tuple(
            [upper if upper in SHAPE_VOCABULARY else kind for kind, _, upper, _ in tokens])
    assert len(lexicon) > 1000
    assert all(tok.shape == (tok.upper if tok.upper in SHAPE_VOCABULARY else tok.kind)
               for tok in lexicon.values())


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
        leaves = _leaves(parse_sql(sql))
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


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_recursion_error_is_reported_as_nesting_too_deep():
    # A parse takes about 8 frames per nesting level: 20 levels need about
    # 180 frames, more than the 60 left free here.
    sql = "SELECT " + "(" * 20 + "1" + ")" * 20 + " FROM t"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        with pytest.raises(ParseError, match="^query nests too deeply") as err:
            parse_sql(sql)
        memo = {}
        corpus = SqlCorpus(name="c", sqls=(sql, "SELECT a FROM t"))
        result = templatize_corpus(corpus, memo=memo)
    finally:
        sys.setrecursionlimit(limit)
    # the offset is that of the token the parser had reached: a "("
    assert err.value.position in token_offsets(sql) and sql[err.value.position] == "("
    assert [i for i, _ in result.failures] == [0]
    assert result.failures[0][1].startswith("query nests too deeply")
    stored = memo[templatize][0][sql]  # the view's strings
    assert isinstance(stored, ParseError)
    assert stored.__traceback__ is None and stored.__context__ is None


def test_prefix_operator_chains_do_not_count_as_nesting():
    for sql in ("SELECT " + "NOT " * 3000 + "1", "SELECT " + "- " * 3000 + "1"):
        # the walk over the 3000-deep tree needs no interpreter stack either
        assert sum(1 for _ in parse_sql(sql).find_all("unary")) == 3000
        assert _outcome_at_depth(sql, 200) == _outcome(sql)


@pytest.mark.parametrize("sql", QUERY_ZOO)
def test_find_all_returns_the_filtered_walk(sql):
    tree = parse_sql(sql)
    nodes = [n for n in tree.walk() if isinstance(n, Node)]
    labels = sorted({n.label for n in nodes}) + ["no_such_label"]
    for node in nodes:  # every subtree, the root included
        for _ in range(2):  # the call that builds the index, then a cached one
            for label in labels:
                expected = [n for n in node.walk() if isinstance(n, Node) and n.label == label]
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
    assert parse_sql("SELECT  a  FROM t") == tree  # tokens hold no offsets
    assert parse_sql("select a from t") != tree  # but their text
    assert parse_sql("SELECT b FROM t") != tree
    node = Node("col", [tokenize("a")[0]])
    assert node == Node("col", tokenize("a"))
    assert node != Node("col", tokenize("b"))
    assert node != Node("lit", tokenize("a"))
    with pytest.raises(TypeError, match="unhashable"):
        hash(node)
    assert weakref.ref(node)() is node


# Trees deeper than the interpreter's stack: a prefix chain, and the
# left-deep chain of an ordinary sum.
_DEEP_QUERIES = {"not-chain": ("SELECT " + "NOT " * 3000 + "1", "SELECT " + "NOT " * 3000 + "2"),
                 "plus-chain": ("SELECT " + "a+" * 2999 + "a FROM t",
                                "SELECT " + "a+" * 2999 + "b FROM t")}


@pytest.mark.parametrize("sql, variant", _DEEP_QUERIES.values(), ids=_DEEP_QUERIES)
def test_deep_trees_compare_and_print(sql, variant):
    tree = parse_sql(sql)
    assert tree == parse_sql(sql)
    assert tree != parse_sql(variant)  # the one token that differs is the last leaf
    text = repr(tree)
    assert text.startswith("Node(label='query', children=[Node(label='select_stmt', children=[")
    items = list(tree.walk())
    assert text.count("Node(") == sum(isinstance(item, Node) for item in items)
    assert text.count("Token(") == sum(isinstance(item, Token) for item in items)


def _reference_repr(item):
    if isinstance(item, Node):
        children = ", ".join(map(_reference_repr, item.children))
        return f"Node(label={item.label!r}, children=[{children}])"
    return repr(item)


def _reference_eq(a, b):
    if isinstance(a, Node) or isinstance(b, Node):
        return (type(a) is type(b) and a.label == b.label and len(a.children) == len(b.children)
                and all(map(_reference_eq, a.children, b.children)))
    return a == b


def test_repr_and_equality_match_a_recursive_reference():
    trees = [parse_sql(sql) for sql in QUERY_ZOO]
    # the same queries with every token moved one character on
    shifted = [parse_sql(" " + sql) for sql in QUERY_ZOO]
    for i, tree in enumerate(trees):
        assert repr(tree) == _reference_repr(tree)
        subtrees = [item for item in tree.walk() if isinstance(item, Node)]
        others = [parse_sql(QUERY_ZOO[i]), shifted[i], trees[i - 1], subtrees[-1],
                  *[item for item in parse_sql(QUERY_ZOO[i]).walk() if isinstance(item, Node)]]
        for node in subtrees:
            for other in others:
                assert (node == other) == _reference_eq(node, other)
                assert (node != other) != _reference_eq(node, other)
    # a walk that is a prefix of another, and the same walk grouped two ways
    a, b = tokenize("a b")
    for node, other in [(Node("x", [a]), Node("x", [a, b])),
                        (Node("x", [Node("y", [a]), b]), Node("x", [Node("y", [a, b])]))]:
        assert node != other and other != node
        assert not _reference_eq(node, other)


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
    assert _leaves(parse_sql(sql)) == _source_tokens(sql)
