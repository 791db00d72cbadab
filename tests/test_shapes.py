"""The shape table: queries of one shape share one parse, and a shared
table gives every query the template or the error that templatize alone
gives it."""

import ast
import itertools
import json
import re
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from sqlalign import parsing, templates
from sqlalign.corpus import Corpus, CorpusRecord, templatize_corpus
from sqlalign.errors import ParseError
from sqlalign.keywords import TEMPLATE_OPERATORS
from sqlalign.parsing import (
    LPAREN,
    NUMBER,
    OP,
    QIDENT,
    SHAPE_VOCABULARY,
    STRING,
    WORD,
    parse_sql,
    query_tokens,
    shape_key,
    tokenize,
)
from sqlalign.templates import derive_template, templatize

GOLDEN_PATH = Path(__file__).with_name("parser_golden.jsonl")
with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN_SQL = [json.loads(line)["sql"] for line in _fh]


def outcome(fn, sql):
    try:
        return fn(sql).tokens
    except ParseError as exc:
        return f"error: {exc}"


# -- the vocabulary ---------------------------------------------------------

def test_the_vocabulary_holds_every_word_and_operator_the_parser_names():
    source = Path(parsing.__file__).read_text(encoding="utf-8")
    named = {node.value for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and re.fullmatch(r"[A-Z_]+|[=<>!|+\-*/%~(),]+", node.value)}
    assert {"SELECT", "ROWS", "RECURSIVE", "*", "<>"} <= named  # the scan finds them
    assert named - SHAPE_VOCABULARY == set()


def test_the_operator_half_is_every_operator_the_tokenizer_makes():
    chars = "=<>!|+-*/%~"
    made = set()
    for n in (1, 2):
        for text in map("".join, itertools.product(chars, repeat=n)):
            try:
                made |= {tok.upper for tok in tokenize(f"a {text} b") if tok.kind == OP}
            except ParseError:
                pass
    assert len(made) == 15
    assert TEMPLATE_OPERATORS == made | {",", "(", ")"}
    assert TEMPLATE_OPERATORS <= SHAPE_VOCABULARY


def test_a_shape_keeps_vocabulary_text_and_reduces_the_rest_to_kinds():
    tokens = query_tokens("SELECT COUNT(*), t.a FROM t WHERE b > 'x' AND c = 1;")
    assert shape_key(tokens) == (
        "SELECT", "word", "(", "*", ")", ",", "word", "dot", "word", "FROM", "word",
        "WHERE", "word", ">", "string", "AND", "word", "=", "number", "end")


# -- one table, the results of templatize -------------------------------------

# One shape in two spellings: COUNT and DOW are outside the vocabulary and
# vary within it, LEFT and YEAR are part of it.
FUNCTION_TWINS = ["SELECT COUNT(*), LEFT(a, 2), EXTRACT(dow FROM d), EXTRACT(YEAR FROM d) FROM t",
                  "SELECT max(*), LEFT(b, 7), EXTRACT(Epoch FROM e), EXTRACT(year FROM e) FROM u"]


def test_a_shared_table_gives_every_golden_input_what_templatize_gives():
    assert len({shape_key(query_tokens(sql)) for sql in FUNCTION_TWINS}) == 1
    inputs = GOLDEN_SQL + FUNCTION_TWINS
    expected = [outcome(templatize, sql) for sql in inputs]
    assert expected[-1][:2] == ("SELECT", "MAX") and "EPOCH" in expected[-1]
    shapes = {}
    for _ in ("cold", "warm"):
        actual = [outcome(lambda sql: templatize(sql, shapes), sql) for sql in inputs]
        assert actual == expected
    assert shapes and all(isinstance(positions, tuple)
                          and all(isinstance(i, int) for i in positions)
                          for positions in shapes.values())


def _parses(sql):
    try:
        parse_sql(sql)
        return True
    except ParseError:
        return False


PARSING_GOLDEN = [sql for sql in GOLDEN_SQL if _parses(sql)]


def test_a_root_records_the_token_positions_of_its_template():
    for sql in PARSING_GOLDEN:
        toks = query_tokens(sql)
        tree = parse_sql(sql, toks)
        assert derive_template(tree).tokens == tuple(
            toks[i].upper for i in tree.positions), sql


_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda name: name.upper() not in SHAPE_VOCABULARY)
_NUMBERS = st.one_of(st.integers(0, 10**6).map(str),
                     st.floats(0, 1e6, allow_nan=False).map(repr).filter(lambda t: "e" not in t))
_STRINGS = st.text(st.characters(blacklist_characters="'", blacklist_categories=("Cs",)),
                   max_size=8).map(lambda text: f"'{text}'")
_QIDENTS = st.text(st.characters(blacklist_characters='"', blacklist_categories=("Cs",)),
                   max_size=8).map(lambda text: f'"{text}"')


def _renamed(data, sql, prefix):
    """sql with its identifiers, literals, function names and EXTRACT
    fields renamed. A word before "(" or after "EXTRACT (" becomes
    ``prefix_k``, a name no golden query holds."""
    tokens = query_tokens(sql)
    parts, at = [], 0
    for index, tok in enumerate(tokens[:-1]):
        if tok.kind == WORD and (
                (tok.upper not in SHAPE_VOCABULARY and tokens[index + 1].kind == LPAREN)
                or (index > 1 and tokens[index - 2].upper == "EXTRACT"
                    and tokens[index - 1].kind == LPAREN)):
            text = f"{prefix}_{index}"
        elif tok.kind == WORD and tok.upper not in SHAPE_VOCABULARY:
            text = data.draw(_NAMES)
        elif tok.kind in (NUMBER, STRING, QIDENT):
            text = data.draw({NUMBER: _NUMBERS, STRING: _STRINGS, QIDENT: _QIDENTS}[tok.kind])
        else:
            continue
        parts += [sql[at:tok.pos], f" {text} "]  # spaced, so it cannot join a neighbour
        at = tok.pos + len(tok.text)
    return "".join(parts) + sql[at:]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_renamed_query_takes_its_own_names_from_the_table(data):
    sql = data.draw(st.sampled_from(PARSING_GOLDEN))
    first, second = _renamed(data, sql, "f"), _renamed(data, sql, "g")
    assert shape_key(query_tokens(first)) == shape_key(query_tokens(second))

    shapes = {}
    templatize(first, shapes)
    with mock.patch.object(templates, "parse_sql", side_effect=AssertionError("parsed")):
        template = templatize(second, shapes)  # taken from the table
    assert template == templatize(second)
    # the function names and fields copied from the second query are its own
    copied = [tok.replace("F_", "G_") for tok in templatize(first).tokens if tok.startswith("F_")]
    assert [tok for tok in template.tokens if tok.startswith("G_")] == copied


_INSERTS = st.sampled_from(sorted(SHAPE_VOCABULARY) + ["a", "1", "'x'", "?"])


def _mutated(data, sql):
    """sql with one token deleted, inserted, swapped with its neighbour or
    duplicated, its token texts joined with spaces."""
    texts = [tok.text for tok in query_tokens(sql)[:-1]]
    at = data.draw(st.integers(0, len(texts) - 1))
    edit = data.draw(st.sampled_from(["delete", "insert", "swap", "duplicate"]))
    if edit == "delete" and len(texts) > 1:
        del texts[at]
    elif edit == "insert":
        texts.insert(at, data.draw(_INSERTS))
    elif edit == "swap" and at + 1 < len(texts):
        texts[at], texts[at + 1] = texts[at + 1], texts[at]
    else:
        texts.insert(at, texts[at])
    return " ".join(texts)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_query_gets_from_the_table_what_templatize_gives(data):
    sql = _mutated(data, data.draw(st.sampled_from(PARSING_GOLDEN)))
    spellings = [_renamed(data, sql, "f"), _renamed(data, sql, "g")]
    assert shape_key(query_tokens(spellings[0])) == shape_key(query_tokens(spellings[1]))
    for order in (spellings, spellings[::-1]):  # the one parsed first fills the table
        shapes = {}
        for spelling in order:
            assert (outcome(lambda text: templatize(text, shapes), spelling)
                    == outcome(templatize, spelling))


# -- parse counts --------------------------------------------------------------

def _counting_parses(monkeypatch):
    calls = []
    parse = templates.parse_sql

    def counted(sql, tokens=None):
        calls.append(sql)
        return parse(sql, tokens)
    monkeypatch.setattr(templates, "parse_sql", counted)
    return calls


def _corpus(sqls):
    return Corpus("c", tuple(CorpusRecord(sql) for sql in sqls))


def test_one_shape_in_fifty_spellings_is_parsed_once(monkeypatch):
    functions = ["COUNT", "SUM", "AVG", "MIN", "MAX", "my_func", "Upper"]
    fields = ["dow", "epoch", "doy", "isodow", "century"]
    sqls = [f"SELECT c{i}, {functions[i % 7]}(x{i}) FROM t{i} WHERE y{i} > {i} "
            f"AND EXTRACT({fields[i % 5]} FROM d) = 'v{i}' GROUP BY c{i}" for i in range(50)]
    calls = _counting_parses(monkeypatch)
    result = templatize_corpus(_corpus(sqls))
    assert len(calls) == 1
    assert result.templates == [templatize(sql) for sql in sqls]
    assert {t.tokens[2] for t in result.templates} == {f.upper() for f in functions}
    assert {t.tokens[11] for t in result.templates} == {f.upper() for f in fields}


def test_a_failing_shape_is_parsed_each_time_and_keeps_its_offsets(monkeypatch):
    sqls = ["SELECT a FROM", "SELECT bb FROM", "SELECT ccc FROM", "SELECT a FROM"]
    calls = _counting_parses(monkeypatch)
    result = templatize_corpus(_corpus(sqls + ["SELECT a FROM t"]))
    assert calls == sqls[:3] + ["SELECT a FROM t"]
    assert result.failures == [(0, "expected table name (at offset 13)"),
                               (1, "expected table name (at offset 14)"),
                               (2, "expected table name (at offset 15)"),
                               (3, "expected table name (at offset 13)")]
