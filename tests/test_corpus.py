import csv
import functools
import gc
import json
import random
import warnings
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpusgen
from sqlalign import patterns, templates
from sqlalign.corpus import (
    SqlCorpus,
    load_corpus,
    map_distinct_sql,
    read_rows,
    sample_corpus,
    templatize_corpus,
)
from sqlalign.errors import (
    EmptyCorpusError,
    EmptyDistributionError,
    FormatError,
    ParseError,
    SqlAlignError,
)
from sqlalign.metrics import AlignmentRatio, AlignmentScore
from sqlalign.ngrams import NGramDistribution
from sqlalign.parsing import parse_sql, query_tokens, shape_key
from sqlalign.patterns import DEFAULT_PATTERNS, count_patterns
from sqlalign.templates import StructuralTemplate, templatize


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def make_corpus(sqls, name="c", groups=None):
    """The columns the views and the sampler take."""
    return SqlCorpus(name=name, sqls=tuple(sqls), groups=groups and tuple(groups))


# -- corpus invariants --------------------------------------------------------

def test_a_row_without_sql_is_neither_loaded_nor_read_back(tmp_path):
    # A row without SQL is neither loaded nor read back as a record.
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"sql": "   ", "q": "a"}, {"sql": "SELECT 1", "q": "b"}, {"q": "c"}])
    with pytest.warns(UserWarning):
        corpus = load_corpus(path, skip_bad_rows=True)
    assert corpus.sqls == ("SELECT 1",)
    rows = read_rows(corpus, range(len(corpus)), question_field="q")
    assert rows == [{"sql": "SELECT 1", "question": "b", "group_id": "", "meta": {}}]


def test_corpus_requires_records():
    with pytest.raises(ValueError, match="at least one record"):
        SqlCorpus(name="x", sqls=())
    assert len(SqlCorpus(name="x", sqls=("SELECT 1",))) == 1


def test_a_groups_column_holds_one_group_per_record():
    for groups in ((), ("a",), ("a", "b", "c")):
        with pytest.raises(ValueError, match="one group per record"):
            SqlCorpus("x", ("SELECT 1", "SELECT 2"), groups)
    assert SqlCorpus("x", ("SELECT 1", "SELECT 2"), ("a", "a")).groups == ("a", "a")
    assert SqlCorpus("x", ("SELECT 1",)).groups is None
    # read_rows and the sampler would read such a corpus as one group "".
    with pytest.raises(ValueError, match="read with a group field holds its groups"):
        SqlCorpus("x", ("SELECT 1",), group_field="db")


def test_corpora_compare_and_hash_by_their_fields():
    corpus = SqlCorpus("x", ("SELECT 1",), ("g",))
    assert corpus == SqlCorpus("x", ("SELECT 1",), ("g",))
    assert corpus != SqlCorpus("x", ("SELECT 1",)) != SqlCorpus("y", ("SELECT 1",))
    assert hash(corpus) == hash(SqlCorpus("x", ("SELECT 1",), ("g",)))
    assert corpus != SqlCorpus("x", ("SELECT 1",), ("g",), skip_bad_rows=True)
    assert repr(corpus) == ("SqlCorpus(name='x', sqls=('SELECT 1',), groups=('g',), "
                            "sql_field='sql', group_field=None, input_format=None, "
                            "skip_bad_rows=False)")


_SCORE = AlignmentScore(d_kl=0.1, a_kl=0.9, c=1.0, alpha=0.5)


@pytest.mark.parametrize("value, field", [
    (SqlCorpus("x", ("SELECT 1",)), "sqls"),
    (SqlCorpus("x", ("SELECT 1",), ("g",)), "groups"),
    (NGramDistribution({"SELECT": 1}, l_max=15), "total"),
    (templatize_corpus(make_corpus(["SELECT 1", "SELECT"])), "distribution"),
    (count_patterns(make_corpus(["SELECT COUNT(*) FROM t"])), "counts"),
    (AlignmentRatio(_SCORE, _SCORE), "ar"),
])
def test_values_are_frozen(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("value", [
    NGramDistribution({"SELECT": 1}, l_max=15),
    templatize_corpus(make_corpus(["SELECT 1"])),
    count_patterns(make_corpus(["SELECT 1"])),
])
def test_a_value_that_holds_a_dict_or_a_list_has_no_hash(value):
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


def test_sample_corpus_validation():
    corpus = make_corpus(["SELECT 1", "SELECT 2"])
    for options, message in [({}, "specify exactly one of fraction and per_group"),
                             ({"fraction": 0.5, "per_group": 2},
                              "specify exactly one of fraction and per_group"),
                             ({"fraction": 0.0}, r"fraction must be in \(0, 1\]"),
                             ({"fraction": 1.5}, r"fraction must be in \(0, 1\]"),
                             ({"per_group": 0}, "per_group must be >= 1")]:
        with pytest.raises(ValueError, match=message):
            sample_corpus(corpus, **options)


# -- loading -----------------------------------------------------------------

def test_load_jsonl_with_field_mapping(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"question": "q0", "SQL": "SELECT a FROM t", "db_id": "d1", "extra": 7},
        {"question": "q1", "SQL": "SELECT b FROM u", "db_id": "d2"},
        {"question": "q2", "SQL": "SELECT c FROM v", "db_id": "d1"},
    ])
    options = {"sql_field": "SQL", "group_field": "db_id"}
    corpus = load_corpus(path, **options)
    assert len(corpus) == 3
    assert corpus.sqls == ("SELECT a FROM t", "SELECT b FROM u", "SELECT c FROM v")
    assert corpus.groups == ("d1", "d2", "d1")
    assert read_rows(corpus, [0, 2], question_field="question") == [
        {"sql": "SELECT a FROM t", "question": "q0", "group_id": "d1", "meta": {"extra": 7}},
        {"sql": "SELECT c FROM v", "question": "q2", "group_id": "d1", "meta": {}}]


def test_load_json_array(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps([{"sql": "SELECT 1"}, {"sql": "SELECT 2"}]))
    assert len(load_corpus(path)) == 2


def test_load_csv_with_groups(tmp_path):
    path = tmp_path / "c.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sql", "domain"])
        for i in range(100):
            writer.writerow([f"SELECT c{i} FROM t{i}", f"dom{i % 4}"])
    corpus = load_corpus(path, sql_field="sql", group_field="domain")
    assert len(corpus) == 100
    assert set(corpus.groups) == {"dom0", "dom1", "dom2", "dom3"}


def test_load_missing_sql_field_names_the_row(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"sql": "SELECT 1"}, {"nope": "x"}, {"sql": "SELECT 2"}])
    with pytest.raises(FormatError) as err:
        load_corpus(path)
    assert err.value.row == 1


def test_load_skip_bad_rows(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"sql": "SELECT 1"}, {"nope": "x"}, {"sql": ""},
                       {"sql": "SELECT 2"}])
    with pytest.warns(UserWarning) as caught:
        corpus = load_corpus(path, skip_bad_rows=True)
    assert corpus.sqls == ("SELECT 1", "SELECT 2")
    assert [str(w.message) for w in caught] == [
        f"{path} row 1: missing or empty field 'sql', skipped",
        f"{path} row 2: missing or empty field 'sql', skipped",
        f"{path}: skipped 2 bad row(s)",
    ]
    assert {w.filename for w in caught} == {__file__}  # blamed on the caller


def test_load_empty_file_raises_empty_corpus(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    with pytest.raises(EmptyCorpusError):
        load_corpus(path)


def test_load_unknown_extension_needs_explicit_format(tmp_path):
    path = tmp_path / "c.dat"
    write_jsonl(path, [{"sql": "SELECT 1"}])
    with pytest.raises(FormatError) as err:
        load_corpus(path)
    assert str(err.value) == (f"{path}: cannot infer the format from the extension '.dat'; "
                              "pass input_format json, jsonl or csv")
    assert len(load_corpus(path, input_format="jsonl")) == 1


def test_load_rejects_non_array_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"sql": "SELECT 1"}))
    with pytest.raises(FormatError):
        load_corpus(path)


_MALFORMED = [
    ("c.json", '{"sql": "SELECT 1"}', None, None, ": expected a JSON array of objects"),
    ("c.json", '[{"sql": "SELECT 1"}, 2]', None, 1, " row 1: expected a JSON object"),
    ("c.csv", "", None, None, ": CSV file has no header row"),
    ("c.csv", "sql\nSELECT 1,2\n", None, 0, " row 0: more fields than the header"),
    ("c.jsonl", '{"sql": "SELECT 1"}\n{"sql": " "}\n', None, 1,
     " row 1: missing or empty field 'sql'"),
    ("b.jsonl", '\n{"sql": "SELECT 1"}\n\n  \n[1]\n', None, 1, " row 1: expected a JSON object"),
    ("c.txt", '{"sql": "SELECT 1"}\n', None, None,
     ": cannot infer the format from the extension '.txt'; pass input_format json, jsonl or csv"),
    ("c.jsonl", "\n", None, None, ": contains no usable records"),
    ("c.json", "[", None, None,
     ": unreadable json file: Expecting value: line 1 column 2 (char 1)"),
    ("c.jsonl", '{"sql": "SELECT 1"}\n', "xml", None, ": unknown input format 'xml'"),
    ("c.csv", "sql,db_id,sql\nSELECT 1,d,SELECT 2\n", None, None,
     ": CSV header repeats the name 'sql'"),
]
_MALFORMED_IDS = ["json-not-array", "json-row-not-object", "csv-no-header", "csv-row-too-long",
                  "row-without-sql", "jsonl-row-not-object-after-blank-lines",
                  "unknown-extension", "empty-file", "undecodable-file", "unknown-input-format",
                  "csv-header-repeats-a-name"]


@pytest.mark.parametrize("name, data, fmt, row, message", _MALFORMED, ids=_MALFORMED_IDS)
def test_a_malformed_file_or_row_is_named_by_its_path(tmp_path, name, data, fmt, row, message):
    path = tmp_path / name
    path.write_text(data, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_corpus(path, input_format=fmt)
    assert str(err.value) == f"{path}{message}"
    assert err.value.path == path
    assert err.value.row == row


_BIG_INT_ROW = b'{"sql": "SELECT a FROM t", "x": ' + b"7" * 5000 + b"}"


_UNREADABLE = [
    ("c.json", b'[{"sql": "SELECT 1"}, {"sql": "SEL'),
    ("c.jsonl", b'{"sql": "SELECT \xff"}\n'),
    ("c.csv", "sql\n".encode() + b"x" * 200_000 + b"\n"),
    ("c.jsonl", _BIG_INT_ROW + b"\n"),
    ("c.json", b"[" + _BIG_INT_ROW + b"]"),
    ("c.jsonl", b"[" * 200_000 + b"\n"),
]
_UNREADABLE_IDS = ["truncated-json-array", "jsonl-not-utf8", "csv-field-over-limit",
                   "jsonl-int-over-digit-limit", "json-int-over-digit-limit",
                   "jsonl-nested-too-deeply"]


@pytest.mark.parametrize("name, data", _UNREADABLE, ids=_UNREADABLE_IDS)
def test_load_unreadable_file_raises_format_error(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(FormatError, match=name):
        load_corpus(path)


_VALID_FILES = {
    "c.json": b'[{"sql": "SELECT a FROM t", "q": "x"}, {"sql": "SELECT COUNT(*) FROM t", "n": 3}]',
    "c.jsonl": b'{"sql": "SELECT a FROM t", "q": "x"}\n{"sql": "SELECT b FROM t", "n": 3}\n',
    "c.csv": b'sql,q\nSELECT a FROM t,x\n"SELECT b, c FROM t",y\n',
}
_PIECES = [b"[", b"{", b"\x00", "\ufeff".encode(), b"7" * 5000, b"[" * 200_000]
# (offset, byte to xor) flips a byte; (offset, piece) inserts one.
_MUTATIONS = st.lists(st.tuples(st.integers(0, 200),
                                st.integers(1, 255) | st.sampled_from(_PIECES)), max_size=4)


def _mutate(data: bytes, mutations) -> bytes:
    data = bytearray(data)
    for offset, change in mutations:
        if isinstance(change, int):
            data[offset % len(data)] ^= change
        else:
            offset %= len(data) + 1
            data[offset:offset] = change
    return bytes(data)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_VALID_FILES)), _MUTATIONS)
@example("c.jsonl", [(_VALID_FILES["c.jsonl"].index(b"3"), b"7" * 5000)])
@example("c.json", [(_VALID_FILES["c.json"].index(b"3"), b"[" * 200_000)])
def test_load_of_a_mutated_file_returns_a_corpus_or_raises_sqlalign_error(
        tmp_path_factory, name, mutations):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(_mutate(_VALID_FILES[name], mutations))
    try:
        corpus = load_corpus(path)
    except SqlAlignError:
        return
    assert isinstance(corpus, SqlCorpus)


_BOM_FILES = [
    ("c.csv", "sql,domain\nSELECT 1,d\n"),
    ("c.json", '[{"sql": "SELECT 1"}]'),
    ("c.jsonl", '{"sql": "SELECT 1"}\n'),
]


@pytest.mark.parametrize("name, text", _BOM_FILES)
def test_load_accepts_a_byte_order_mark(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8-sig")
    assert load_corpus(path).sqls == ("SELECT 1",)


_FALSY_FIELD_ROWS = [
    {"sql": "SELECT 1", "q": 0, "db_id": 0},
    {"sql": "SELECT 2", "q": False, "db_id": 0.0},
    {"sql": "SELECT 3", "q": None, "db_id": None},
    {"sql": "SELECT 4"},
    {"sql": "SELECT 5", "q": "", "db_id": ""},
]


def test_load_keeps_falsy_question_and_group_values(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, _FALSY_FIELD_ROWS)
    corpus = load_corpus(path, group_field="db_id")
    rows = read_rows(corpus, range(len(corpus)), question_field="q")
    assert [row["question"] for row in rows] == ["0", "False", "", "", ""]
    assert [row["group_id"] for row in rows] == list(corpus.groups) == ["0", "0.0", "", "", ""]


def test_read_rows_reads_with_the_settings_of_the_load(tmp_path):
    # The re-read takes the load's settings and groups: it cannot read
    # another field as the group, nor disagree with corpus.groups.
    path = tmp_path / "c.dat"
    write_jsonl(path, [{"SQL": "SELECT 1", "db": "a", "q": "x"}, {"SQL": ""},
                       {"SQL": "SELECT 2", "db": "b", "q": "y"}])
    with pytest.warns(UserWarning):
        corpus = load_corpus(path, sql_field="SQL", group_field="db", input_format="jsonl",
                             skip_bad_rows=True)
    assert (corpus.sql_field, corpus.group_field, corpus.input_format,
            corpus.skip_bad_rows) == ("SQL", "db", "jsonl", True)
    rows = read_rows(corpus, [0, 1])
    assert [row["group_id"] for row in rows] == list(corpus.groups) == ["a", "b"]
    assert [row["meta"] for row in rows] == [{"q": "x"}, {"q": "y"}]
    with pytest.raises(TypeError):
        read_rows(corpus, [0, 1], group_field="q")


_UNHELD_ROWS = [
    [{"sql": "SELECT 1", "db_id": "a"}, {"sql": "SELECT 2", "db_id": "b"}],
    [{"sql": "SELECT 1", "nope": None}, {"sql": "SELECT 2", "nope": None}],
    [{"sql": "SELECT 1"}, {"sql": "", "nope": "skipped with its row"}],
]
_UNHELD_IDS = ["absent", "null", "only-in-a-skipped-row"]


@pytest.mark.parametrize("field", ["group_field"])
@pytest.mark.parametrize("rows", _UNHELD_ROWS, ids=_UNHELD_IDS)
@pytest.mark.filterwarnings("ignore:.*skipped")
def test_load_a_named_field_that_no_row_holds_is_a_format_error(tmp_path, field, rows):
    path = tmp_path / "g.jsonl"
    write_jsonl(path, rows)
    with pytest.raises(FormatError) as err:
        load_corpus(path, skip_bad_rows=True, **{field: "nope"})
    assert str(err.value) == f"{path}: no row holds field 'nope'"


@pytest.mark.parametrize("rows", _UNHELD_ROWS, ids=_UNHELD_IDS)
@pytest.mark.filterwarnings("ignore:.*skipped")
def test_read_rows_a_question_field_that_no_row_holds_is_a_format_error(tmp_path, rows):
    # load_corpus does not read the question field; read_rows checks it.
    path = tmp_path / "g.jsonl"
    write_jsonl(path, rows)
    corpus = load_corpus(path, skip_bad_rows=True)
    with pytest.raises(FormatError) as err:
        read_rows(corpus, range(len(corpus)), question_field="nope")
    assert str(err.value) == f"{path}: no row holds field 'nope'"


def test_load_a_field_held_by_one_row_or_by_empty_csv_cells_is_kept(tmp_path):
    path = tmp_path / "g.jsonl"
    write_jsonl(path, [{"sql": "SELECT 1"}, {"sql": "SELECT 2", "db_id": "a"}])
    assert load_corpus(path, group_field="db_id").groups == ("", "a")
    path = tmp_path / "g.csv"
    path.write_text("sql,q\nSELECT 1,\n", encoding="utf-8")
    assert read_rows(load_corpus(path), [0], question_field="q")[0]["question"] == ""


def test_load_unknown_input_format_names_the_file(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"sql": "SELECT 1"}])
    with pytest.raises(FormatError) as err:
        load_corpus(path, input_format="xml")
    assert str(err.value) == f"{path}: unknown input format 'xml'"


def test_a_file_that_cannot_be_read_is_a_format_error_naming_it(tmp_path):
    for path in (tmp_path / "missing.jsonl", tmp_path):
        with pytest.raises(FormatError) as err:
            load_corpus(path, input_format="jsonl")
        assert err.value.path == path and err.value.row is None
        assert str(err.value).startswith(f"{path}: cannot read: ")
        assert isinstance(err.value.__cause__, OSError)


# -- the reader and the writer's re-read ----------------------------------------

def _jsonl(rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


_DIRECTORY = object()  # the case's path is a directory
# (file name, contents or None for no file, loader options) of every case
# the loader tests above make, and a few more.
_READER_CASES = {
    "jsonl-field-mapping": ("c.jsonl", _jsonl([
        {"question": "q0", "SQL": "SELECT a FROM t", "db_id": "d1", "extra": 7},
        {"question": "q1", "SQL": "SELECT b FROM u", "db_id": "d2"},
        {"question": "q2", "SQL": "SELECT a FROM t", "db_id": "d1"},
    ]), {"sql_field": "SQL", "question_field": "question", "group_field": "db_id"}),
    "json-array": ("c.json", '[{"sql": "SELECT 1"}, {"sql": "SELECT 2"}]', {}),
    "csv-groups": ("c.csv", "sql,domain\n" + "".join(
        f"SELECT c{i % 7} FROM t,dom{i % 4}\n" for i in range(100)), {"group_field": "domain"}),
    "json-number-as-sql": ("c.json", '[{"sql": 7}, {"sql": "SELECT 1"}, {"sql": 7.5}]', {}),
    "missing-sql": ("c.jsonl", _jsonl([{"sql": "SELECT 1"}, {"nope": "x"}]), {}),
    "skip-bad-rows": ("c.jsonl", _jsonl([{"sql": "SELECT 1"}, {"nope": "x"}, {"sql": ""},
                                         {"sql": "SELECT 2"}, {"sql": None}]),
                      {"skip_bad_rows": True}),
    "skip-every-row": ("c.jsonl", _jsonl([{"sql": " "}, {"nope": "x"}]),
                       {"skip_bad_rows": True}),
    "unknown-extension-with-format": ("c.dat", '{"sql": "SELECT 1"}\n',
                                      {"input_format": "jsonl"}),
    "falsy-fields": ("c.jsonl", _jsonl(_FALSY_FIELD_ROWS),
                     {"question_field": "q", "group_field": "db_id"}),
    "field-held-by-one-row": ("g.jsonl", _jsonl([{"sql": "SELECT 1"},
                                                 {"sql": "SELECT 2", "db_id": "a"}]),
                              {"group_field": "db_id"}),
    "field-in-empty-csv-cells": ("g.csv", "sql,q\nSELECT 1,\n", {"question_field": "q"}),
    "missing-file": ("missing.jsonl", None, {}),
    "directory": ("d.jsonl", _DIRECTORY, {}),
    **{f"malformed-{case_id}": (name, data, {"input_format": fmt})
       for case_id, (name, data, fmt, _, _) in zip(_MALFORMED_IDS, _MALFORMED)},
    **{f"unreadable-{case_id}": (name, data, {})
       for case_id, (name, data) in zip(_UNREADABLE_IDS, _UNREADABLE)},
    **{f"byte-order-mark-{name}": (name, "\ufeff" + text, {}) for name, text in _BOM_FILES},
    **{f"unheld-{case_id}-{field}": ("g.jsonl", _jsonl(rows),
                                     {field: "nope", "skip_bad_rows": True})
       for case_id, rows in zip(_UNHELD_IDS, _UNHELD_ROWS)
       for field in ("question_field", "group_field")},
}


def _caught(caught):
    return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _read_both(path, options):
    """What the reader makes of a file, and the writer's re-read of every
    record of it: the SQL texts, or the type, text, path and row of the
    error raised. Both must agree, and the re-read gives no warning. The
    text, category and blamed file and line of every warning the reader
    gave are returned with its outcome.

    A question field in the options is given to the re-read alone, since
    the reader does not read it: where no kept row holds it, the re-read
    fails on it alone, and where the reader failed, as the reader did."""
    load_options = {k: v for k, v in options.items() if k != "question_field"}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loaded = load_corpus(path, **load_options)
        except FormatError as exc:
            loaded = None
            outcome = (type(exc), str(exc), exc.path, exc.row)
        else:
            outcome = (loaded.name, loaded.sqls)
        loaded_warnings = _caught(caught)
        # A file the reader rejects has no records to choose; the re-read
        # of none of them must still fail as the reader did.
        corpus = loaded or SqlCorpus(str(path), ("SELECT 1",),
                                     ("",) if options.get("group_field") else None,
                                     **load_options)
        try:
            rows = read_rows(corpus, range(len(corpus)) if loaded else (),
                             options.get("question_field"))
        except FormatError as exc:
            reread = (type(exc), str(exc), exc.path, exc.row)
        else:
            reread = (corpus.name, tuple(row["sql"] for row in rows))
        assert _caught(caught) == loaded_warnings
    if loaded is not None and reread != outcome:
        unheld = f"{path}: no row holds field {options.get('question_field')!r}"
        assert reread == (FormatError, unheld, path, None)
        rows = read_rows(loaded, range(len(loaded)))
        assert tuple(row["sql"] for row in rows) == loaded.sqls
    else:
        assert reread == outcome
    return outcome, loaded_warnings


@pytest.mark.parametrize("name, data, options", _READER_CASES.values(), ids=_READER_CASES)
def test_both_readers_keep_the_same_sql_or_fail_alike(tmp_path, name, data, options):
    path = tmp_path / name
    if data is _DIRECTORY:
        path.mkdir()
    elif data is not None:
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    _, caught = _read_both(path, options)
    assert {filename for _, _, filename, _ in caught} <= {__file__}  # blamed on the caller
    if caught:
        *skipped, total = caught
        assert all(text.endswith(", skipped") for text, *_ in skipped)
        assert total[0] == f"{path}: skipped {len(skipped)} bad row(s)"


@pytest.mark.parametrize("data, message, row", [
    ('sql\n"SELECT a FROM t\nSELECT b FROM u\nSELECT c FROM v\n', "unexpected end of data", 0),
    ('sql\n"a"b\n', "',' expected after '\"'", 0),
    ('sql\nSELECT a FROM t\n"SELECT b FROM u\nSELECT c FROM v\n', "unexpected end of data", 1),
    ('"sql\nSELECT a FROM t\n', "unexpected end of data", None),
], ids=["unclosed-quote", "text-after-closing-quote", "unclosed-quote-in-the-second-record",
        "unclosed-quote-in-the-header"])
@pytest.mark.parametrize("options", [{}, {"skip_bad_rows": True}], ids=["strict", "skipping"])
def test_malformed_csv_quoting_fails_both_readers_naming_the_file(tmp_path, data, message, row,
                                                                  options):
    # Read leniently, an unclosed quote swallows the rest of the file into
    # one record, and text after a closing quote joins the field. The
    # error names the record being read, counted as JSONL counts its
    # rows, and the file alone when that is the header.
    path = tmp_path / "c.csv"
    path.write_text(data, encoding="utf-8")
    outcome, _ = _read_both(path, options)
    where = f"{path}:" if row is None else f"{path} row {row}:"
    assert outcome == (FormatError, f"{where} unreadable csv file: {message}", path, row)


def test_load_sql_keeps_the_sql_column_and_each_distinct_text_once(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"sql": "SELECT a FROM t", "q": "x"}, {"sql": "SELECT 7"},
                       {"sql": "SELECT a FROM t", "q": "y"}, {"sql": 7}])
    sqls = load_corpus(path)
    assert sqls == SqlCorpus(str(path), ("SELECT a FROM t", "SELECT 7", "SELECT a FROM t", "7"))
    assert len(sqls) == 4
    assert sqls.sqls[0] is sqls.sqls[2]
    assert sqls.sqls == tuple(row["sql"] for row in read_rows(sqls, range(4)))
    assert hash(sqls) == hash(SqlCorpus(str(path), sqls.sqls))
    with pytest.raises(AttributeError):
        sqls.sqls = ()
    with pytest.raises(ValueError):
        SqlCorpus("x", ())


def test_the_groups_column_keeps_each_distinct_text_once(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"sql": "SELECT 1", "db": "a" * 40}, {"sql": "SELECT 2", "db": 7},
                       {"sql": "SELECT 3", "db": "a" * 40}, {"sql": "SELECT 4"},
                       {"sql": "SELECT 5", "db": 7}, {"sql": "SELECT 6", "db": None}])
    corpus = load_corpus(path, group_field="db")
    assert corpus.groups == ("a" * 40, "7", "a" * 40, "", "7", "")
    groups = corpus.groups
    assert groups[0] is groups[2] and groups[1] is groups[4] and groups[3] is groups[5]
    assert load_corpus(path).groups is None


def test_read_rows_names_the_file_and_row_that_changed_since_the_load(tmp_path):
    path = tmp_path / "c.jsonl"
    rows = [{"sql": "SELECT 1", "q": "a"}, {"nope": 1}, {"sql": "SELECT 2", "q": "b"},
            {"sql": "SELECT 3"}]
    write_jsonl(path, rows)
    with pytest.warns(UserWarning):
        corpus = load_corpus(path, skip_bad_rows=True)
    write_jsonl(path, rows[:2] + [{"sql": "SELECT 9", "q": "b"}] + rows[3:])
    # The rows before the changed one still read back.
    assert read_rows(corpus, [0])[0]["sql"] == "SELECT 1"
    with pytest.raises(FormatError) as err:
        read_rows(corpus, [0, 1])
    assert str(err.value) == f"{path} row 2: SQL changed since the file was loaded"
    assert (err.value.path, err.value.row) == (path, 2)
    for changed in (rows[:3], rows + [{"sql": "SELECT 4"}]):
        write_jsonl(path, changed)
        with pytest.raises(FormatError) as err:
            read_rows(corpus, [0])
        assert str(err.value) == (f"{path}: changed since it was loaded: "
                                  f"{len(changed) - 1} records, not 3")
    path.unlink()
    with pytest.raises(FormatError, match="cannot read"):
        read_rows(corpus, [0])


def test_read_rows_gives_no_warning_and_keeps_record_order(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"sql": "SELECT 1", "x": 1}, {"sql": ""}, {"sql": "SELECT 2", "y": None},
                       {"sql": "SELECT 3"}])
    with pytest.warns(UserWarning):
        corpus = load_corpus(path, skip_bad_rows=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = read_rows(corpus, [2, 0, 2])
    assert rows == [{"sql": "SELECT 1", "question": "", "group_id": "", "meta": {"x": 1}},
                    {"sql": "SELECT 3", "question": "", "group_id": "", "meta": {}}]
    assert read_rows(corpus, []) == []
    for indices in ([0, 3], [-1], [1, 7, 5]):
        with pytest.raises(IndexError, match="record index out of range"):
            read_rows(corpus, indices)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_VALID_FILES)), _MUTATIONS)
def test_both_readers_agree_on_a_mutated_file(tmp_path_factory, name, mutations):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(_mutate(_VALID_FILES[name], mutations))
    _read_both(path, {"skip_bad_rows": True})


# -- sampling ----------------------------------------------------------------

def test_fraction_one_keeps_everything_in_order():
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(20)])
    assert sample_corpus(corpus, fraction=1.0, seed=9) == list(range(20))


def test_fraction_rounds_up():
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(10)])
    assert len(sample_corpus(corpus, fraction=0.01, seed=0)) == 1


@pytest.mark.parametrize("fraction, n, kept", [
    (0.28, 25, 7),  # 0.28 * 25 == 7.000000000000001
    (0.56, 50, 28),
    (0.14, 50, 7),
    (0.281, 25, 8),
    (1e-12, 5, 1),
])
def test_fraction_counts_a_product_near_an_integer_as_that_integer(fraction, n, kept):
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(n)])
    assert len(sample_corpus(corpus, fraction=fraction, seed=0)) == kept


def test_per_group_takes_min_of_k_and_group_size():
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(6)],
                         groups=["db1"] * 5 + ["db2"])
    chosen = sample_corpus(corpus, per_group=2, seed=4)
    assert len(chosen) == 3
    by_group = {}
    for i in chosen:
        by_group[corpus.groups[i]] = by_group.get(corpus.groups[i], 0) + 1
    assert by_group == {"db1": 2, "db2": 1}


def test_per_group_picks_from_the_groups_column():
    sqls = [f"SELECT c{i} FROM t" for i in range(12)]
    groups = ["a", "b", "c"] * 4
    spec = {"per_group": 1, "seed": 5}
    chosen = sample_corpus(make_corpus(sqls, groups=groups), **spec)
    assert sorted(groups[i] for i in chosen) == ["a", "b", "c"]
    # The same SQL column with other groups draws from those; without a
    # groups column the corpus is one group.
    first, second = sample_corpus(make_corpus(sqls, groups=["a"] * 6 + ["b"] * 6), **spec)
    assert first < 6 <= second
    assert len(sample_corpus(make_corpus(sqls), **spec)) == 1
    assert sample_corpus(make_corpus(sqls), **spec) == sample_corpus(
        make_corpus(sqls, groups=[""] * 12), **spec)


def test_sampling_is_deterministic_per_seed():
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(100)])
    spec = {"fraction": 0.2, "seed": 42}
    assert sample_corpus(corpus, **spec) == sample_corpus(corpus, **spec)
    assert sample_corpus(corpus, fraction=0.2, seed=43) != sample_corpus(corpus, **spec)


def test_sampling_preserves_original_order():
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(50)])
    chosen = sample_corpus(corpus, fraction=0.3, seed=1)
    assert chosen == sorted(set(chosen)) and len(chosen) == 15


# -- templatize pipeline -------------------------------------------------------

def test_templatize_all_valid():
    corpus = make_corpus(["SELECT a FROM t", "SELECT b FROM u"])
    result = templatize_corpus(corpus)
    assert result.failures == []
    assert len(result.templates) == 2
    assert result.distribution.total > 0
    assert result.distribution.source_label == corpus.name


def test_templatize_records_failures_without_dying():
    corpus = make_corpus(["SELECT a FROM t", "SELECT broken FROM", "garbage ("])
    result = templatize_corpus(corpus)
    assert (len(result.templates), len(result.failures)) == (1, 2)
    assert [i for i, _ in result.failures] == [1, 2]
    assert len(result.templates) + len(result.failures) == len(corpus)


def test_templatize_all_failing_raises():
    corpus = make_corpus(["SELECT broken FROM", "( ("])
    with pytest.raises(EmptyDistributionError, match="^c: none of its 2 records parsed$"):
        templatize_corpus(corpus)


def test_templatize_distribution_is_permutation_stable():
    sqls = [f"SELECT c{i}, COUNT(*) FROM t{i} GROUP BY c{i}" for i in range(10)]
    forward = templatize_corpus(make_corpus(sqls)).distribution
    backward = templatize_corpus(make_corpus(list(reversed(sqls)))).distribution
    assert forward.counts == backward.counts


def test_map_distinct_sql_calls_once_per_exact_string():
    calls = []

    def fn(sql, shapes, lexicon):
        calls.append((sql, shapes, lexicon))
        return parse_sql(sql)

    sqls = ["SELECT a FROM t", "SELECT broken FROM", "SELECT a FROM t",
            "SELECT  a FROM t", "SELECT broken FROM"]
    memo = {}
    results, failures = map_distinct_sql(make_corpus(sqls), fn, memo)
    assert [sql for sql, _, _ in calls] == ["SELECT a FROM t", "SELECT broken FROM",
                                            "SELECT  a FROM t"]
    # The view's whole cache is one entry, keyed by its function: its
    # strings, shape table and lexicon.
    assert list(memo) == [fn]
    strings, view_shapes, view_lexicon = memo[fn]
    assert all(shapes is view_shapes and lexicon is view_lexicon
               for _, shapes, lexicon in calls)
    assert len(results) == 3
    assert results[0] is results[1] and results[0] is not results[2]
    assert [i for i, _ in failures] == [1, 4] and failures[0][1] == failures[1][1]
    stored = strings["SELECT broken FROM"]
    assert isinstance(stored, ParseError) and stored.__traceback__ is None
    assert failures[0][1] == str(stored)


def test_map_distinct_sql_without_a_memo_keeps_tables_for_one_call():
    calls = []

    def fn(sql, shapes, lexicon):
        calls.append((shapes, lexicon))
        return len(sql)

    corpus = make_corpus(["SELECT a FROM t", "SELECT b FROM t", "SELECT a FROM t"])
    assert map_distinct_sql(corpus, fn, None) == ([15, 15, 15], [])
    assert map_distinct_sql(corpus, fn, None) == ([15, 15, 15], [])
    assert len(calls) == 4  # once per distinct string in each call
    assert calls[0][0] is calls[1][0] and calls[0][1] is calls[1][1]
    assert calls[1][0] is not calls[2][0] and calls[1][1] is not calls[2][1]


def test_two_functions_in_one_memo_keep_apart_caches():
    # Both lambdas are named "<lambda>": the cache is keyed by the function
    # object, so the second does not get the first one's values.
    corpus = make_corpus(["SELECT a FROM t"])
    memo = {}
    assert map_distinct_sql(corpus, lambda sql, shapes, lexicon: len(sql), memo) == ([15], [])
    assert map_distinct_sql(corpus, lambda sql, shapes, lexicon: sql.upper(), memo) \
        == (["SELECT A FROM T"], [])
    assert len(memo) == 2


def test_a_wrapped_view_function_keeps_its_own_cache():
    # A wrapper made with functools.wraps, as a tracer wraps
    # corpus.templatize, copies the function's name but is another key.
    @functools.wraps(templatize)
    def wrapped(sql, shapes, lexicon):
        return templatize(sql, shapes, lexicon)

    corpus = make_corpus(["SELECT a FROM t", "SELECT broken FROM", "SELECT b FROM u",
                          "SELECT a FROM t"])
    memo = {}
    plain = map_distinct_sql(corpus, templatize, memo)
    assert map_distinct_sql(corpus, wrapped, memo) == plain
    assert list(memo) == [templatize, wrapped]
    assert memo[wrapped][0].keys() == memo[templatize][0].keys()
    assert all(a is not b for a, b in zip(memo[templatize], memo[wrapped]))


_GENERATED_SQL = st.builds(
    lambda seed, skeleton: corpusgen.make_query(random.Random(seed), skeleton=skeleton),
    st.integers(0, 10_000), st.sampled_from(corpusgen.SKELETONS + corpusgen.FAR_SKELETONS))
_TRUNCATED_SQL = st.builds(lambda sql, cut: sql[:cut], _GENERATED_SQL, st.integers(1, 60))
_SQL = st.one_of(_GENERATED_SQL, _TRUNCATED_SQL, st.text(max_size=30)).filter(str.strip)
# A pool of strings, then records drawn from it, so that strings repeat. Each
# string also comes with a leading space, which moves a ParseError's offset.
_CORPUS_SQLS = st.lists(_SQL, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool + [" " + sql for sql in pool]),
                          min_size=1, max_size=20))


@settings(max_examples=150, deadline=None)
@given(_CORPUS_SQLS)
def test_deduplicated_views_equal_a_per_record_loop(sqls):
    templates, failures = [], []
    pattern_counts = {spec.id: 0 for spec in DEFAULT_PATTERNS}
    parse_failures = 0
    for i, sql in enumerate(sqls):
        try:
            templates.append(templatize(sql))
        except ParseError as exc:
            failures.append((i, str(exc)))
        try:
            tree = parse_sql(sql)  # raises only ParseError
        except ParseError:
            parse_failures += 1
            continue
        for spec in DEFAULT_PATTERNS:
            if spec.match(tree):
                pattern_counts[spec.id] += 1
    corpus = make_corpus(sqls)

    counted = count_patterns(corpus)
    assert (counted.counts, counted.parse_failures) == (pattern_counts, parse_failures)
    if not templates:
        with pytest.raises(EmptyDistributionError):
            templatize_corpus(corpus)
        return
    result = templatize_corpus(corpus)
    assert len(result.templates) + len(result.failures) == len(sqls)
    assert result.templates == templates
    assert result.failures == failures


@settings(max_examples=100, deadline=None)
@given(_CORPUS_SQLS, st.booleans())
def test_both_views_fail_the_same_records(sqls, shared_memo):
    corpus = make_corpus(sqls)
    memo = {} if shared_memo else None
    counted = count_patterns(corpus, memo=memo)
    try:
        result = templatize_corpus(corpus, memo=memo)
    except EmptyDistributionError:
        assert counted.parse_failures == len(corpus)
        return
    assert counted.parse_failures == len(result.failures)
    assert len(result.templates) + len(result.failures) == len(corpus)


def _templatize_view(corpus, memo=None):
    """templatize_corpus as comparable values, its error included."""
    try:
        result = templatize_corpus(corpus, memo=memo)
    except EmptyDistributionError:
        return "empty"
    return (result.templates, result.failures, len(result.templates), len(result.failures),
            result.distribution.counts, result.distribution.source_label)


def _patterns_view(corpus, memo=None):
    counted = count_patterns(corpus, memo=memo)
    return counted.corpus_name, counted.counts, counted.parse_failures


# Several corpora drawn from one pool of strings, so that strings repeat
# within and across corpora.
_POOLED_CORPORA = st.lists(_SQL, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(
        st.lists(st.sampled_from(pool + [" " + sql for sql in pool]), min_size=1, max_size=8),
        min_size=2, max_size=4))


@settings(max_examples=100, deadline=None)
@given(_POOLED_CORPORA)
def test_a_shared_memo_gives_the_per_corpus_results(corpora_sqls):
    corpora = [make_corpus(sqls, name=f"c{i}") for i, sqls in enumerate(corpora_sqls)]
    memo = {}
    for corpus in corpora:
        assert _templatize_view(corpus, memo) == _templatize_view(corpus)
        assert _patterns_view(corpus, memo) == _patterns_view(corpus)


def test_views_in_one_memo_do_not_mix():
    sqls = ["SELECT a, SUM(b) FROM t GROUP BY a", "SELECT COUNT(*) FROM t",
            "SELECT broken FROM", "SELECT SUM(b) FROM t", "SELECT COUNT(*) FROM t"]
    corpus = make_corpus(sqls)
    memo = {}
    assert _templatize_view(corpus, memo) == _templatize_view(corpus)
    assert _patterns_view(corpus, memo) == _patterns_view(corpus)
    assert _templatize_view(corpus, memo) == _templatize_view(corpus)
    # One cache per view function, each a (strings, shapes, lexicon)
    # triple, and no table shared between two of them.
    assert set(memo) == {templatize, patterns._matching_ids}
    tables = [table for cache in memo.values() for table in cache]
    assert all(len(cache) == 3 for cache in memo.values())
    assert len({id(table) for table in tables}) == len(tables) == 6


def test_the_memo_keeps_no_tree(monkeypatch):
    refs = []

    def tracked(parse):
        def parse_and_track(sql, tokens=None):
            tree = parse(sql, tokens)
            refs.append(weakref.ref(tree))
            return tree
        return parse_and_track

    monkeypatch.setattr(templates, "parse_sql", tracked(templates.parse_sql))
    monkeypatch.setattr(patterns, "parse_sql", tracked(patterns.parse_sql))
    # The last two strings have the shape of the second, so the shape table
    # serves both without a parse in the templates view. The patterns view
    # parses the fourth for its new template, and the fifth not at all.
    corpus = make_corpus(["SELECT a FROM t WHERE b IN (SELECT c FROM u)",
                          "SELECT COUNT(*) FROM t", "SELECT broken FROM",
                          "SELECT MAX(*) FROM u", "SELECT count(*) FROM v"])
    memo = {}
    gc.disable()
    try:
        templatize_corpus(corpus, memo=memo)
        count_patterns(corpus, memo=memo)
        assert len(refs) == 5  # 2 for the templates, 3 for the patterns; failures leave none
        assert [ref() for ref in refs] == [None] * 5
    finally:
        gc.enable()
    assert set(memo) == {templatize, patterns._matching_ids}
    # The patterns view's shape table keeps per shape its token positions
    # and the pattern ids of each template read at them, and no tree.
    pattern_shapes = memo[patterns._matching_ids][1]
    assert len(pattern_shapes) == 2
    positions, shape_ids = pattern_shapes[shape_key(query_tokens("SELECT MAX(*) FROM u"))]
    assert positions == (0, 1, 2, 3, 4, 5)
    assert shape_ids == {("SELECT", "COUNT", "(", "*", ")", "FROM"): ("count_star",),
                         ("SELECT", "MAX", "(", "*", ")", "FROM"): ()}
    assert sorted(ids for _, shape_ids in pattern_shapes.values()
                  for ids in shape_ids.values()) == [(), ("count_star",), ("subquery",)]
    # The templates view's shape table keeps per shape its token positions
    # and the templates read at them, each keyed by its own tokens, and no tree.
    shapes = memo[templatize][1]
    assert len(shapes) == 2
    positions, shape_templates = shapes[shape_key(query_tokens("SELECT MAX(*) FROM u"))]
    assert positions == (0, 1, 2, 3, 4, 5)
    assert list(shape_templates) == [("SELECT", "COUNT", "(", "*", ")", "FROM"),
                                     ("SELECT", "MAX", "(", "*", ")", "FROM")]
    for positions, shape_templates in shapes.values():
        assert isinstance(positions, tuple) and all(isinstance(i, int) for i in positions)
        assert all(type(template) is StructuralTemplate and template.tokens == tokens
                   for tokens, template in shape_templates.items())
