"""The shape table: queries of one shape share one parse, and a shared
table gives every query the template or the error that templatize alone
gives it."""

import ast
import itertools
import json
import os
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from sqlalign import cli, parsing, templates
from sqlalign.corpus import SqlCorpus, templatize_corpus
from sqlalign.errors import ParseError
from sqlalign.keywords import TEMPLATE_OPERATORS
from sqlalign.parsing import (
    LPAREN,
    NUMBER,
    OP,
    PARAM,
    QIDENT,
    SHAPE_VOCABULARY,
    STRING,
    WORD,
    parse_sql,
    query_tokens,
    shape_key,
    token_offsets,
    tokenize,
)
from sqlalign.patterns import DEFAULT_PATTERNS
from sqlalign.templates import StructuralTemplate, derive_template, templatize

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
    # An entry is the shape's positions and the templates read at them,
    # each keyed by its own tokens; the twins' one shape holds two.
    assert shapes
    for positions, shape_templates in shapes.values():
        assert isinstance(positions, tuple) and all(isinstance(i, int) for i in positions)
        assert shape_templates and all(
            type(template) is StructuralTemplate and template.tokens == tokens
            and len(tokens) == len(positions)
            for tokens, template in shape_templates.items())
    twins = shapes[shape_key(query_tokens(FUNCTION_TWINS[0]))][1]
    assert list(twins) == [tuple(expected[-2]), tuple(expected[-1])]


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
    for index, (tok, pos) in enumerate(zip(tokens[:-1], token_offsets(sql))):
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
        parts += [sql[at:pos], f" {text} "]  # spaced, so it cannot join a neighbour
        at = pos + len(tok.text)
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


# -- the pattern-spec contract -----------------------------------------------

# A schema word may spell a name that a default spec looks for.
_SCHEMA_WORDS = st.one_of(_NAMES, st.sampled_from(["COUNT", "count", "Sum", "iif", "IIF", "max"]))
_PARAMS = st.one_of(st.just("?"), _NAMES.map(":{}".format), _NAMES.map("@{}".format))
_SCHEMA_TOKENS = {WORD: _SCHEMA_WORDS, NUMBER: _NUMBERS, STRING: _STRINGS, QIDENT: _QIDENTS,
                  PARAM: _PARAMS}


def _schema_renamed(data, sql):
    """sql with every token outside its tree's positions and outside
    SHAPE_VOCABULARY replaced by another token of its kind."""
    tokens = query_tokens(sql)
    structural = set(parse_sql(sql, tokens).positions)
    parts, at = [], 0
    for index, (tok, pos) in enumerate(zip(tokens[:-1], token_offsets(sql))):
        if index in structural or tok.upper in SHAPE_VOCABULARY or tok.kind not in _SCHEMA_TOKENS:
            continue
        parts += [sql[at:pos], f" {data.draw(_SCHEMA_TOKENS[tok.kind])} "]
        at = pos + len(tok.text)
    return "".join(parts) + sql[at:]


def _pattern_ids(sql):
    tree = parse_sql(sql)
    return [spec.id for spec in DEFAULT_PATTERNS if spec.match(tree)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_default_patterns_read_no_schema_token(data):
    sql = data.draw(st.sampled_from(PARSING_GOLDEN))
    renamed = _schema_renamed(data, sql)
    assert shape_key(query_tokens(renamed)) == shape_key(query_tokens(sql))
    assert _pattern_ids(renamed) == _pattern_ids(sql)


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
    return SqlCorpus("c", tuple(sqls))


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


# -- template objects ----------------------------------------------------------

def _template_run_argv(command, tmp_path) -> list[str]:
    """The command's argv over three corpora (one for ``templates``) that
    share strings and shapes."""
    rng = random.Random(5)
    files = {
        "target": corpusgen.make_mixture_corpus(120, seed=3) + FUNCTION_TWINS,
        "near": [corpusgen.make_query_pair(rng)[1] for _ in range(40)]
        + FUNCTION_TWINS[::-1] + ["SELECT broken FROM"],
        "far": corpusgen.make_mixture_corpus(30, seed=4, skeletons=corpusgen.FAR_SKELETONS),
    }
    paths = {}
    for name, sqls in files.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("".join(json.dumps({"sql": sql}) + "\n" for sql in sqls),
                               encoding="utf-8")
    return {"templates": ["templates", str(paths["target"])],
            "align": ["align", "--target", str(paths["target"]),
                      "--source", str(paths["near"]), "--source", str(paths["far"])],
            "ar": ["ar", "--target", str(paths["target"]), "--train", str(paths["near"]),
                   "--pred", str(paths["far"]), "--c", "1"]}[command]


def _pairs(runs) -> tuple[dict, set]:
    """Each (shape key, template tokens) of the records that parsed in the
    (corpus, result) runs, to the one template object its records hold
    (fails if two differ); and the strings that parsed."""
    by_pair = {}
    strings = set()
    for corpus, result in runs:
        failed = {i for i, _ in result.failures}
        parsed = [sql for i, sql in enumerate(corpus.sqls) if i not in failed]
        assert len(parsed) == len(result.templates) > 0
        strings.update(parsed)
        for sql, template in zip(parsed, result.templates):
            pair = shape_key(query_tokens(sql)), template.tokens
            assert template is by_pair.setdefault(pair, template), sql
    return by_pair, strings


@pytest.mark.parametrize("command", ["templates", "align", "ar"])
def test_a_cli_run_builds_one_template_object_per_shape_and_template(
        command, tmp_path, monkeypatch):
    argv = _template_run_argv(command, tmp_path)

    built = []
    init = StructuralTemplate.__init__

    def counted_init(self, tokens):
        built.append(tokens)
        init(self, tokens)
    monkeypatch.setattr(StructuralTemplate, "__init__", counted_init)
    results = []
    run_templatize_corpus = cli.templatize_corpus

    def kept(corpus, **kwargs):
        result = run_templatize_corpus(corpus, **kwargs)
        results.append((corpus, result))
        return result
    monkeypatch.setattr(cli, "templatize_corpus", kept)
    assert cli.main(argv + ["-o", str(tmp_path / "out")]) == 0

    # Across every corpus of the run, records of one (shape, template)
    # hold one object, and each pair has an object of its own.
    by_pair, strings = _pairs(results)
    assert len({id(template) for template in by_pair.values()}) == len(by_pair)
    assert len(built) == len(by_pair)
    assert len(strings) > 2 * len(by_pair)  # shapes repeat across distinct strings
    # The twins share a shape, so a template of their own each.
    twin_shape = shape_key(query_tokens(FUNCTION_TWINS[0]))
    twins = [template for (shape, _), template in by_pair.items() if shape == twin_shape]
    assert [template.tokens for template in twins] == [
        templatize(sql).tokens for sql in FUNCTION_TWINS]
    assert twins[0] is not twins[1]


@pytest.mark.parametrize("command", ["align", "ar"])
def test_each_forked_process_builds_one_template_object_per_shape_and_template(
        command, tmp_path, monkeypatch):
    # The name dates from when align and ar templatized their last corpus
    # in a forked child. Each process that builds a template object
    # appends its pid to one file: only this process may appear, once per
    # (shape, template) over all three corpora.
    argv = _template_run_argv(command, tmp_path)
    log = tmp_path / "built.txt"
    init = StructuralTemplate.__init__

    def logged_init(self, tokens):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        init(self, tokens)
    monkeypatch.setattr(StructuralTemplate, "__init__", logged_init)
    runs = []
    templatize_all = cli._templatize_all

    def kept(corpora, l_max):
        outcomes = templatize_all(corpora, l_max)
        runs.append((corpora, outcomes))
        return outcomes
    monkeypatch.setattr(cli, "_templatize_all", kept)
    assert cli.main(argv + ["-o", str(tmp_path / "out")]) == 0

    [(corpora, outcomes)] = runs
    assert len(corpora) == 3
    by_pair, _ = _pairs(zip(corpora, outcomes))
    assert len({id(template) for template in by_pair.values()}) == len(by_pair)
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * len(by_pair)
