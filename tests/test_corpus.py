import csv
import json

import pytest

from sqlalign.corpus import (
    Corpus,
    CorpusRecord,
    SampleSpec,
    load_corpus,
    sample_corpus,
    templatize_corpus,
    write_templates,
)
from sqlalign.errors import EmptyCorpusError, EmptyDistributionError, FormatError


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def make_corpus(sqls, name="c", kind="train", groups=None):
    groups = groups or [""] * len(sqls)
    return Corpus(name=name, kind=kind, records=tuple(
        CorpusRecord(sql=s, group_id=g) for s, g in zip(sqls, groups)))


# -- records / corpus invariants --------------------------------------------

def test_record_requires_sql():
    with pytest.raises(ValueError):
        CorpusRecord(sql="   ")


def test_corpus_requires_records_and_known_kind():
    record = CorpusRecord(sql="SELECT 1")
    with pytest.raises(ValueError):
        Corpus(name="x", kind="train", records=())
    with pytest.raises(ValueError):
        Corpus(name="x", kind="dev", records=(record,))
    assert len(Corpus(name="x", kind="prediction", records=(record,))) == 1


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
                         group_field="db_id", kind="target")
    assert len(corpus) == 3
    assert corpus.kind == "target"
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
    corpus = load_corpus(path, skip_bad_rows=True)
    assert [r.sql for r in corpus.records] == ["SELECT 1", "SELECT 2"]


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


@pytest.mark.parametrize("name, data", [
    ("c.json", b'[{"sql": "SELECT 1"}, {"sql": "SEL'),
    ("c.jsonl", b'{"sql": "SELECT \xff"}\n'),
    ("c.csv", "sql\n".encode() + b"x" * 200_000 + b"\n"),
], ids=["truncated-json-array", "jsonl-not-utf8", "csv-field-over-limit"])
def test_load_unreadable_file_raises_format_error(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(FormatError):
        load_corpus(path)


@pytest.mark.parametrize("name, text", [
    ("c.csv", "sql,domain\nSELECT 1,d\n"),
    ("c.json", '[{"sql": "SELECT 1"}]'),
    ("c.jsonl", '{"sql": "SELECT 1"}\n'),
])
def test_load_accepts_a_byte_order_mark(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8-sig")
    assert [r.sql for r in load_corpus(path).records] == ["SELECT 1"]


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
    assert (result.parsed, result.failed) == (2, 0)
    assert result.failures == []
    assert len(result.templates) == 2
    assert result.distribution.total > 0
    assert result.distribution.source_label == corpus.name


def test_templatize_records_failures_without_dying():
    corpus = make_corpus(["SELECT a FROM t", "SELECT broken FROM", "garbage ("])
    result = templatize_corpus(corpus)
    assert (result.parsed, result.failed) == (1, 2)
    assert [i for i, _ in result.failures] == [1, 2]
    assert result.parsed + result.failed == len(corpus)


def test_templatize_all_failing_raises():
    corpus = make_corpus(["SELECT broken FROM", "( ("])
    with pytest.raises(EmptyDistributionError):
        templatize_corpus(corpus)


def test_templatize_distribution_is_permutation_stable():
    sqls = [f"SELECT c{i}, COUNT(*) FROM t{i} GROUP BY c{i}" for i in range(10)]
    forward = templatize_corpus(make_corpus(sqls)).distribution
    backward = templatize_corpus(make_corpus(list(reversed(sqls)))).distribution
    assert forward.counts == backward.counts


def test_write_templates_one_per_line_lf(tmp_path):
    corpus = make_corpus(["SELECT a FROM t", "SELECT COUNT(*) FROM u"])
    result = templatize_corpus(corpus)
    path = tmp_path / "templates.txt"
    write_templates(result.templates, path)
    data = path.read_bytes()
    assert data == b"SELECT FROM\nSELECT COUNT ( * ) FROM\n"
