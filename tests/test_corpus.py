import csv
import gc
import json
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpusgen
from sqlalign import patterns, templates
from sqlalign.corpus import (
    Corpus,
    CorpusRecord,
    SampleSpec,
    load_corpus,
    map_distinct_sql,
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
from sqlalign.parsing import parse_sql, query_tokens, shape_key
from sqlalign.patterns import DEFAULT_PATTERNS, count_patterns
from sqlalign.templates import templatize


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def make_corpus(sqls, name="c", groups=None):
    groups = groups or [""] * len(sqls)
    return Corpus(name=name, records=tuple(
        CorpusRecord(sql=s, group_id=g) for s, g in zip(sqls, groups)))


# -- records / corpus invariants --------------------------------------------

def test_record_requires_sql():
    with pytest.raises(ValueError):
        CorpusRecord(sql="   ")


def test_corpus_requires_records():
    record = CorpusRecord(sql="SELECT 1")
    with pytest.raises(ValueError):
        Corpus(name="x", records=())
    assert len(Corpus(name="x", records=(record,))) == 1


def test_records_corpora_and_sample_specs_compare_by_their_fields():
    record = CorpusRecord(sql="SELECT 1", question="q", meta={"k": 1})
    assert record == CorpusRecord("SELECT 1", "q", "", {"k": 1})
    assert record != CorpusRecord("SELECT 1", "q", "", {"k": 2})
    assert CorpusRecord("SELECT 1").meta == {}
    # meta is a dict, so records and the corpora that hold them are unhashable.
    with pytest.raises(TypeError, match="unhashable type: 'CorpusRecord'"):
        hash(record)
    with pytest.raises(TypeError, match="unhashable type: 'Corpus'"):
        hash(Corpus("x", (record,)))
    assert Corpus("x", (record,)) == Corpus("x", (record,)) != Corpus("y", (record,))
    spec = SampleSpec(fraction=0.5, seed=3)
    assert spec == SampleSpec(0.5, None, 3) != SampleSpec(0.5, None, 4)
    assert hash(spec) == hash(SampleSpec(0.5, None, 3))
    assert repr(spec) == "SampleSpec(fraction=0.5, per_group=None, seed=3)"


@pytest.mark.parametrize("value, field", [
    (CorpusRecord("SELECT 1"), "sql"),
    (Corpus("x", (CorpusRecord("SELECT 1"),)), "records"),
    (SampleSpec(per_group=2), "seed"),
])
def test_records_corpora_and_sample_specs_are_frozen(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec()
    with pytest.raises(ValueError):
        SampleSpec(fraction=0.5, per_group=2)
    with pytest.raises(ValueError):
        SampleSpec(fraction=0.0)
    with pytest.raises(ValueError):
        SampleSpec(fraction=1.5)
    with pytest.raises(ValueError):
        SampleSpec(per_group=0)


# -- loading -----------------------------------------------------------------

def test_load_jsonl_with_field_mapping(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"question": "q0", "SQL": "SELECT a FROM t", "db_id": "d1", "extra": 7},
        {"question": "q1", "SQL": "SELECT b FROM u", "db_id": "d2"},
        {"question": "q2", "SQL": "SELECT c FROM v", "db_id": "d1"},
    ])
    corpus = load_corpus(path, sql_field="SQL", question_field="question",
                         group_field="db_id")
    assert len(corpus) == 3
    assert corpus.records[0].question == "q0"
    assert corpus.records[0].group_id == "d1"
    assert corpus.records[0].meta == {"extra": 7}


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
    assert {r.group_id for r in corpus.records} == {"dom0", "dom1", "dom2", "dom3"}


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
    assert [r.sql for r in corpus.records] == ["SELECT 1", "SELECT 2"]
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
    with pytest.raises(FormatError):
        load_corpus(path)
    assert len(load_corpus(path, input_format="jsonl")) == 1


def test_load_rejects_non_array_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"sql": "SELECT 1"}))
    with pytest.raises(FormatError):
        load_corpus(path)


@pytest.mark.parametrize("name, data, message", [
    ("c.json", '{"sql": "SELECT 1"}', ": expected a JSON array of objects"),
    ("c.json", '[{"sql": "SELECT 1"}, 2]', " row 1: expected a JSON object"),
    ("c.csv", "", ": CSV file has no header row"),
    ("c.csv", "sql\nSELECT 1,2\n", " row 0: more fields than the header"),
    ("c.jsonl", '{"sql": "SELECT 1"}\n{"sql": " "}\n', " row 1: missing or empty field 'sql'"),
    ("b.jsonl", '\n{"sql": "SELECT 1"}\n\n  \n[1]\n', " row 1: expected a JSON object"),
], ids=["json-not-array", "json-row-not-object", "csv-no-header", "csv-row-too-long",
        "row-without-sql", "jsonl-row-not-object-after-blank-lines"])
def test_a_malformed_file_or_row_is_named_by_its_path(tmp_path, name, data, message):
    path = tmp_path / name
    path.write_text(data, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}{message}"


_BIG_INT_ROW = b'{"sql": "SELECT a FROM t", "x": ' + b"7" * 5000 + b"}"


@pytest.mark.parametrize("name, data", [
    ("c.json", b'[{"sql": "SELECT 1"}, {"sql": "SEL'),
    ("c.jsonl", b'{"sql": "SELECT \xff"}\n'),
    ("c.csv", "sql\n".encode() + b"x" * 200_000 + b"\n"),
    ("c.jsonl", _BIG_INT_ROW + b"\n"),
    ("c.json", b"[" + _BIG_INT_ROW + b"]"),
    ("c.jsonl", b"[" * 200_000 + b"\n"),
], ids=["truncated-json-array", "jsonl-not-utf8", "csv-field-over-limit",
        "jsonl-int-over-digit-limit", "json-int-over-digit-limit", "jsonl-nested-too-deeply"])
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
    assert isinstance(corpus, Corpus)


@pytest.mark.parametrize("name, text", [
    ("c.csv", "sql,domain\nSELECT 1,d\n"),
    ("c.json", '[{"sql": "SELECT 1"}]'),
    ("c.jsonl", '{"sql": "SELECT 1"}\n'),
])
def test_load_accepts_a_byte_order_mark(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8-sig")
    assert [r.sql for r in load_corpus(path).records] == ["SELECT 1"]


def test_load_keeps_falsy_question_and_group_values(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"sql": "SELECT 1", "q": 0, "db_id": 0},
        {"sql": "SELECT 2", "q": False, "db_id": 0.0},
        {"sql": "SELECT 3", "q": None, "db_id": None},
        {"sql": "SELECT 4"},
        {"sql": "SELECT 5", "q": "", "db_id": ""},
    ])
    records = load_corpus(path, question_field="q", group_field="db_id").records
    assert [r.question for r in records] == ["0", "False", "", "", ""]
    assert [r.group_id for r in records] == ["0", "0.0", "", "", ""]


@pytest.mark.parametrize("field", ["question_field", "group_field"])
@pytest.mark.parametrize("rows", [
    [{"sql": "SELECT 1", "db_id": "a"}, {"sql": "SELECT 2", "db_id": "b"}],
    [{"sql": "SELECT 1", "nope": None}, {"sql": "SELECT 2", "nope": None}],
    [{"sql": "SELECT 1"}, {"sql": "", "nope": "skipped with its row"}],
], ids=["absent", "null", "only-in-a-skipped-row"])
@pytest.mark.filterwarnings("ignore:.*skipped")
def test_load_a_named_field_that_no_row_holds_is_a_format_error(tmp_path, field, rows):
    path = tmp_path / "g.jsonl"
    write_jsonl(path, rows)
    with pytest.raises(FormatError) as err:
        load_corpus(path, skip_bad_rows=True, **{field: "nope"})
    assert str(err.value) == f"{path}: no row holds field 'nope'"


def test_load_a_field_held_by_one_row_or_by_empty_csv_cells_is_kept(tmp_path):
    path = tmp_path / "g.jsonl"
    write_jsonl(path, [{"sql": "SELECT 1"}, {"sql": "SELECT 2", "db_id": "a"}])
    assert [r.group_id for r in load_corpus(path, group_field="db_id").records] == ["", "a"]
    path = tmp_path / "g.csv"
    path.write_text("sql,q\nSELECT 1,\n", encoding="utf-8")
    assert load_corpus(path, question_field="q").records[0].question == ""


def test_load_unknown_input_format_names_the_file(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"sql": "SELECT 1"}])
    with pytest.raises(FormatError) as err:
        load_corpus(path, input_format="xml")
    assert str(err.value) == f"{path}: unknown input format 'xml'"


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "missing.jsonl")


# -- sampling ----------------------------------------------------------------

def test_fraction_one_keeps_everything_in_order():
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(20)])
    sampled = sample_corpus(corpus, SampleSpec(fraction=1.0, seed=9))
    assert sampled.records == corpus.records


def test_fraction_rounds_up():
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(10)])
    sampled = sample_corpus(corpus, SampleSpec(fraction=0.01, seed=0))
    assert len(sampled) == 1


@pytest.mark.parametrize("fraction, n, kept", [
    (0.28, 25, 7),  # 0.28 * 25 == 7.000000000000001
    (0.56, 50, 28),
    (0.14, 50, 7),
    (0.281, 25, 8),
    (1e-12, 5, 1),
])
def test_fraction_counts_a_product_near_an_integer_as_that_integer(fraction, n, kept):
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(n)])
    assert len(sample_corpus(corpus, SampleSpec(fraction=fraction, seed=0))) == kept


def test_per_group_takes_min_of_k_and_group_size():
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(6)],
                         groups=["db1"] * 5 + ["db2"])
    sampled = sample_corpus(corpus, SampleSpec(per_group=2, seed=4))
    assert len(sampled) == 3
    by_group = {}
    for record in sampled.records:
        by_group[record.group_id] = by_group.get(record.group_id, 0) + 1
    assert by_group == {"db1": 2, "db2": 1}


def test_sampling_is_deterministic_per_seed():
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(100)])
    spec = SampleSpec(fraction=0.2, seed=42)
    assert sample_corpus(corpus, spec).records == sample_corpus(corpus, spec).records
    other = sample_corpus(corpus, SampleSpec(fraction=0.2, seed=43))
    assert other.records != sample_corpus(corpus, spec).records


def test_sampling_preserves_original_order():
    corpus = make_corpus([f"SELECT c{i} FROM t" for i in range(50)])
    sampled = sample_corpus(corpus, SampleSpec(fraction=0.3, seed=1))
    positions = [corpus.records.index(r) for r in sampled.records]
    assert positions == sorted(positions)


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

    def fn(sql):
        calls.append(sql)
        return parse_sql(sql)

    sqls = ["SELECT a FROM t", "SELECT broken FROM", "SELECT a FROM t",
            "SELECT  a FROM t", "SELECT broken FROM"]
    memo = {}
    results, failures = map_distinct_sql(make_corpus(sqls), fn, memo, "trees")
    assert calls == ["SELECT a FROM t", "SELECT broken FROM", "SELECT  a FROM t"]
    assert len(results) == 3
    assert results[0] is results[1] and results[0] is not results[2]
    assert [i for i, _ in failures] == [1, 4] and failures[0][1] == failures[1][1]
    stored = memo["trees"]["SELECT broken FROM"]
    assert isinstance(stored, ParseError) and stored.__traceback__ is None
    assert failures[0][1] == str(stored)


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


def _patterns_view(corpus, specs=DEFAULT_PATTERNS, memo=None):
    counted = count_patterns(corpus, specs, memo=memo)
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
        assert _patterns_view(corpus, memo=memo) == _patterns_view(corpus)


def test_views_in_one_memo_do_not_mix():
    sqls = ["SELECT a, SUM(b) FROM t GROUP BY a", "SELECT COUNT(*) FROM t",
            "SELECT broken FROM", "SELECT SUM(b) FROM t", "SELECT COUNT(*) FROM t"]
    corpus = make_corpus(sqls)
    other_specs = tuple(reversed(DEFAULT_PATTERNS[:3]))
    memo = {}
    assert _templatize_view(corpus, memo) == _templatize_view(corpus)
    assert _patterns_view(corpus, memo=memo) == _patterns_view(corpus)
    assert _patterns_view(corpus, other_specs, memo) == _patterns_view(corpus, other_specs)
    assert _templatize_view(corpus, memo) == _templatize_view(corpus)
    assert len(memo) == 4  # two pattern views, the templates view and its shape table
    assert "shapes" in memo


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
    # serves both without a parse.
    corpus = make_corpus(["SELECT a FROM t WHERE b IN (SELECT c FROM u)",
                          "SELECT COUNT(*) FROM t", "SELECT broken FROM",
                          "SELECT MAX(*) FROM u", "SELECT SUM(*) FROM v"])
    memo = {}
    gc.disable()
    try:
        templatize_corpus(corpus, memo=memo)
        count_patterns(corpus, memo=memo)
        assert len(refs) == 6  # the failing string leaves no tree, the last two no parse
        assert [ref() for ref in refs] == [None] * 6
    finally:
        gc.enable()
    assert len(memo) == 3
    # The shape table keeps token positions, and no tree.
    shapes = memo["shapes"]
    assert shapes[shape_key(query_tokens("SELECT MAX(*) FROM u"))] == (0, 1, 2, 3, 4, 5)
    assert all(isinstance(i, int) for positions in shapes.values() for i in positions)
