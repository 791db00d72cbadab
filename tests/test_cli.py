import csv
import json
import math
import os
import shlex
import warnings
from pathlib import Path

import pytest

from sqlalign import cli, corpus, patterns
from sqlalign.cli import _NOT_ECHOED, build_parser, dumps_report, main
from sqlalign.errors import EmptyDistributionError, ParseError

TARGET_ROWS = [
    {"question": "q1", "SQL": "SELECT name FROM singer WHERE age > 30", "db_id": "concert"},
    {"question": "q2", "SQL": "SELECT COUNT(*) FROM stadium", "db_id": "concert"},
    {"question": "q3", "SQL": "SELECT region, SUM(amount) FROM investments GROUP BY region", "db_id": "fin"},
    {"question": "q4", "SQL": "SELECT a FROM t WHERE b IN (SELECT b FROM u)", "db_id": "misc"},
]
NEAR_ROWS = [  # same shapes as the target, different schema
    {"question": "t1", "SQL": "SELECT title FROM album WHERE year_n > 2000", "db_id": "music"},
    {"question": "t2", "SQL": "SELECT COUNT(*) FROM track", "db_id": "music"},
    {"question": "t3", "SQL": "SELECT genre, SUM(sales) FROM records GROUP BY genre", "db_id": "music"},
    {"question": "t4", "SQL": "SELECT x FROM v WHERE y IN (SELECT y FROM w)", "db_id": "misc"},
]
FAR_ROWS = [  # different shapes, one unparseable row
    {"SQL": "SELECT a.x, b.y FROM ta a JOIN tb b ON a.k = b.k ORDER BY a.x LIMIT 5"},
    {"SQL": "SELECT CASE WHEN p > 1 THEN 'x' ELSE 'y' END FROM q"},
    {"SQL": "SELECT broken FROM"},
]


@pytest.fixture
def corpora(tmp_path):
    paths = {}
    for name, rows in (("target", TARGET_ROWS), ("near", NEAR_ROWS), ("far", FAR_ROWS)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rows))
        paths[name] = str(path)
    return paths


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- templates ----------------------------------------------------------------

def test_templates_writes_one_template_per_line(corpora, tmp_path):
    out = tmp_path / "templates.txt"
    report = tmp_path / "report.json"
    code = main(["templates", corpora["target"], "--sql-field", "SQL",
                 "-o", str(out), "--report", str(report)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "SELECT FROM WHERE >"
    assert lines[1] == "SELECT COUNT ( * ) FROM"
    assert len(lines) == 4
    rep = read_json(report)
    assert rep["parsed"] == 4 and rep["failed"] == 0
    assert rep["config"]["l_max"] == 15


def test_templates_file_and_stdout_hold_the_same_bytes(tmp_path, capsysbinary):
    path = tmp_path / "c.jsonl"
    path.write_text('{"sql": "SELECT a FROM t"}\n{"sql": "SELECT COUNT(*) FROM u"}\n')
    out = tmp_path / "templates.txt"
    assert main(["templates", str(path), "-o", str(out)]) == 0
    assert main(["templates", str(path)]) == 0
    expected = b"SELECT FROM\nSELECT COUNT ( * ) FROM\n"
    assert out.read_bytes() == expected
    assert capsysbinary.readouterr().out == expected


def test_templates_tolerates_partial_failures(corpora, tmp_path):
    report = tmp_path / "report.json"
    code = main(["templates", corpora["far"], "--sql-field", "SQL",
                 "-o", str(tmp_path / "t.txt"), "--report", str(report)])
    assert code == 0
    rep = read_json(report)
    assert rep["parsed"] == 2 and rep["failed"] == 1
    assert rep["failures"][0]["index"] == 2


def test_templates_lists_a_too_deep_row_as_a_failure(tmp_path):
    path = tmp_path / "deep.jsonl"
    rows = [{"sql": "SELECT " + "(" * 3000 + "1" + ")" * 3000}, {"sql": "SELECT a FROM t"}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    report = tmp_path / "report.json"
    code = main(["templates", str(path), "-o", str(tmp_path / "t.txt"),
                 "--report", str(report)])
    assert code == 0
    failures = read_json(report)["failures"]
    assert [f["index"] for f in failures] == [0]
    assert failures[0]["message"].startswith("query nests too deeply")


def test_templates_missing_file_is_data_error(tmp_path):
    assert main(["templates", str(tmp_path / "none.json")]) == 2


def test_templates_distribution_export(corpora, tmp_path):
    dist_path = tmp_path / "dist.json"
    main(["templates", corpora["target"], "--sql-field", "SQL",
          "-o", str(tmp_path / "t.txt"), "--distribution", str(dist_path)])
    payload = read_json(dist_path)
    assert payload["total"] == sum(payload["counts"].values())
    assert list(payload["counts"]) == sorted(payload["counts"])


# -- align ---------------------------------------------------------------------

def test_align_self_is_perfect(corpora, tmp_path):
    out = tmp_path / "align.json"
    code = main(["align", "--target", corpora["target"],
                 "--source", corpora["target"],
                 "--sql-field", "SQL", "--c", "1.0", "-o", str(out)])
    assert code == 0
    row = read_json(out)["rows"][0]
    assert row["a_kl"] == 1.0
    assert row["ovlp"] == 1.0
    assert row["d_kl"] == 0.0


def test_align_max_in_batch_pins_farthest_source(corpora, tmp_path):
    out = tmp_path / "align.json"
    code = main(["align", "--target", corpora["target"],
                 "--source", corpora["target"],
                 "--source", corpora["near"],
                 "--source", corpora["far"],
                 "--sql-field", "SQL", "-o", str(out)])
    assert code == 0
    rows = read_json(out)["rows"]
    assert len(rows) == 3
    pinned = [r for r in rows if abs(r["a_kl"] - 1 / math.e) < 1e-6]
    assert len(pinned) == 1
    assert pinned[0]["source"].endswith("far.json")
    assert len({r["c"] for r in rows}) == 1
    assert rows[2]["parse_failures"]["source"] == 1


def test_align_error_row_and_exit_code_for_bad_source(corpora, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"SQL": "SELECT broken FROM"}]))
    out = tmp_path / "align.json"
    code = main(["align", "--target", corpora["target"], "--source", str(bad),
                 "--source", corpora["near"], "--sql-field", "SQL",
                 "-o", str(out)])
    assert code == 2
    rows = read_json(out)["rows"]
    assert "EmptyDistribution" in rows[0]["error"]
    assert f"{bad}: none of its 1 records parsed" in rows[0]["error"]
    assert "error" not in rows[1]
    err = capsys.readouterr().err
    assert err == (
        "sqlalign: warning: max-in-batch scaling with a single candidate pins its "
        "score to 1/e (or 1.0 at zero divergence); pass a fixed c for a meaningful "
        "single-pair score\n"
        "align: 2 row(s), 1 error(s)\n")
    assert "UserWarning" not in err and "cli.py" not in err


def test_align_csv_output(corpora, tmp_path):
    out = tmp_path / "align.csv"
    main(["align", "--target", corpora["target"], "--source", corpora["near"],
          "--sql-field", "SQL", "--c", "2.0", "--format", "csv", "-o", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["c"] == "2.000000"
    assert float(rows[0]["a_kl"]) > 0
    assert rows[0]["parse_failures_source"] == "0"


def test_align_reports_are_byte_identical_across_runs(corpora, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["align", "--target", corpora["target"], "--source", corpora["near"],
            "--source", corpora["far"], "--sql-field", "SQL"]
    assert main(argv + ["-o", str(out_a)]) == 0
    assert main(argv + ["-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_align_usage_error_exit_code(corpora):
    with pytest.raises(SystemExit) as exc:
        main(["align", "--target", corpora["target"]])
    assert exc.value.code == 1


@pytest.mark.parametrize("option", ["--alpha", "--c"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_align_rejects_a_non_finite_or_non_positive_constant(corpora, tmp_path, option, value):
    out = tmp_path / "align.json"
    with pytest.raises(SystemExit) as exc:
        main(["align", "--target", corpora["target"], "--source", corpora["near"],
              "--sql-field", "SQL", option, value, "-o", str(out)])
    assert exc.value.code == 1
    assert not out.exists()


# -- ar -------------------------------------------------------------------------

def test_ar_equal_train_and_pred(corpora, tmp_path):
    out = tmp_path / "ar.json"
    code = main(["ar", "--target", corpora["target"], "--train", corpora["near"],
                 "--pred", corpora["near"], "--sql-field", "SQL", "--c", "1.0",
                 "-o", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["ar"] == 1.0
    assert rep["sft_recommended"] is False
    assert "heuristic" in rep["note"]
    assert rep["numerator"] == rep["denominator"]
    assert sorted(rep["numerator"]) == ["a_kl", "alpha", "c", "d_kl"]


def test_ar_prefers_structurally_closer_train(corpora, tmp_path):
    out = tmp_path / "ar.json"
    main(["ar", "--target", corpora["target"], "--train", corpora["near"],
          "--pred", corpora["far"], "--sql-field", "SQL", "--c", "1.0",
          "-o", str(out)])
    rep = read_json(out)
    assert rep["ar"] > 1.0
    assert rep["sft_recommended"] is True
    # swapping train and pred flips the prediction
    main(["ar", "--target", corpora["target"], "--train", corpora["far"],
          "--pred", corpora["near"], "--sql-field", "SQL", "--c", "1.0",
          "-o", str(out)])
    swapped = read_json(out)
    assert swapped["ar"] < 1.0
    assert swapped["sft_recommended"] is False
    # reports carry 6-decimal floats, compare at that precision
    assert swapped["ar"] == pytest.approx(1.0 / rep["ar"], abs=1e-5)


def test_every_warning_prints_as_one_line_when_raised(corpora, tmp_path, capsys):
    gaps = tmp_path / "gaps.json"
    gaps.write_text(json.dumps(NEAR_ROWS + [{"question": "no sql"}]))
    shown = warnings.showwarning
    code = main(["ar", "--target", corpora["target"], "--train", str(gaps), "--pred", str(gaps),
                 "--sql-field", "SQL", "--skip-bad-rows", "--c", "1.0",
                 "-o", str(tmp_path / "ar.json")])
    assert code == 0
    skipped = (f"sqlalign: warning: {gaps} row 4: missing or empty field 'SQL', skipped\n"
               f"sqlalign: warning: {gaps}: skipped 1 bad row(s)\n")
    # one load per role, and a repeated text is printed again
    assert capsys.readouterr().err == skipped * 2 + "ar=1.000000 sft_recommended=False\n"
    assert warnings.showwarning is shown


def test_ar_requires_c(corpora):
    with pytest.raises(SystemExit) as exc:
        main(["ar", "--target", corpora["target"], "--train", corpora["near"],
              "--pred", corpora["near"], "--sql-field", "SQL"])
    assert exc.value.code == 1


def test_ar_names_the_corpus_where_no_record_parses(corpora, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"SQL": "SELECT broken FROM"}, {"SQL": "( ("}]))
    code = main(["ar", "--target", corpora["target"], "--train", str(bad),
                 "--pred", corpora["near"], "--sql-field", "SQL", "--c", "1.0"])
    assert code == 2
    assert capsys.readouterr().err == f"sqlalign: error: {bad}: none of its 2 records parsed\n"


@pytest.mark.parametrize("option", ["--alpha", "--c"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_ar_rejects_a_non_finite_constant(corpora, option, value):
    argv = ["ar", "--target", corpora["target"], "--train", corpora["near"],
            "--pred", corpora["far"], "--sql-field", "SQL", "--c", "1.0"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["align", "--source", "far", "--c", "1.0", "--alpha", "1e308"],
    ["align", "--source", "far", "--c", "1.0", "--alpha", "1e-320"],
    ["ar", "--train", "near", "--pred", "far", "--c", "1e-320"],
    ["templates", "big_int"],
    ["templates", "deep"],
], ids=["align-alpha-1e308", "align-alpha-1e-320", "ar-c-1e-320", "int-over-digit-limit",
        "nested-too-deeply"])
def test_extreme_input_is_one_data_error_line_and_no_report(corpora, tmp_path, capsys, argv):
    corpora["big_int"] = tmp_path / "big.jsonl"
    corpora["big_int"].write_text('{"SQL": "SELECT a FROM t", "x": ' + "7" * 5000 + "}\n")
    corpora["deep"] = tmp_path / "deep.jsonl"
    corpora["deep"].write_text('{"SQL": "SELECT a FROM t"}\n' + "[" * 200_000 + "\n")
    out = tmp_path / "out.txt"
    command, *rest = [str(corpora.get(arg, arg)) for arg in argv]
    if command != "templates":
        rest += ["--target", corpora["target"]]
    assert main([command, *rest, "--sql-field", "SQL", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sqlalign: error: ") and err.count("\n") == 1
    assert not out.exists()


# -- one parse per distinct string per command ---------------------------------

_SHARED = ["SELECT a FROM t", "SELECT COUNT(*) FROM u", "SELECT broken FROM"]
_STRINGS = {
    "target": _SHARED + ["SELECT b FROM v WHERE c > 1"],
    "src1": _SHARED[::-1] + ["SELECT SUM(d) FROM w", "SELECT a FROM t"],
    "src2": ["SELECT SUM(d) FROM w", "SELECT broken FROM", "( ("],
}


def _write_strings(tmp_path) -> dict:
    paths = {}
    for name, sqls in _STRINGS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps([{"sql": sql} for sql in sqls]))
    return paths


def test_each_command_parses_a_distinct_string_once(tmp_path, monkeypatch):
    # In one process: align and ar fork over three corpora, and the calls
    # of a child are not seen here.
    monkeypatch.delattr(os, "fork")
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def count_call(sql, *table):  # corpus.templatize also takes the shape table
            calls.append(sql)
            return fn(sql, *table)
        monkeypatch.setattr(module, name, count_call)

    counted(corpus, "templatize")
    counted(patterns, "parse_sql")
    paths = _write_strings(tmp_path)
    commands = [
        (["align", "--target", paths["target"], "--source", paths["src1"],
          "--source", paths["src2"]], ["target", "src1", "src2"]),
        (["ar", "--target", paths["target"], "--train", paths["src1"],
          "--pred", paths["src2"], "--c", "1"], ["target", "src1", "src2"]),
        (["patterns", "--before", paths["src1"], "--after", paths["src2"]], ["src1", "src2"]),
    ]
    for argv, read in commands:
        calls.clear()
        out = tmp_path / "out.json"
        assert main([str(arg) for arg in argv] + ["-o", str(out)]) == 0
        distinct = {sql for name in read for sql in _STRINGS[name]}
        assert sorted(calls) == sorted(distinct), argv[0]


def test_each_forked_process_parses_a_distinct_string_of_its_corpora_once(tmp_path,
                                                                          monkeypatch):
    # Over three corpora, this process templatizes target and src1 and a
    # forked child src2. Both append their calls to one file.
    log = tmp_path / "calls.jsonl"
    templatize = corpus.templatize

    def count_call(sql, *table):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), sql]) + "\n")
        return templatize(sql, *table)
    monkeypatch.setattr(corpus, "templatize", count_call)
    paths = _write_strings(tmp_path)
    for argv in (["align", "--target", paths["target"], "--source", paths["src1"],
                  "--source", paths["src2"]],
                 ["ar", "--target", paths["target"], "--train", paths["src1"],
                  "--pred", paths["src2"], "--c", "1"]):
        log.write_text("")
        assert main([str(arg) for arg in argv] + ["-o", str(tmp_path / "out.json")]) == 0
        calls = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, sql = json.loads(line)
            calls.setdefault(pid, []).append(sql)
        parent = sorted(calls.pop(os.getpid()))
        assert parent == sorted(set(_STRINGS["target"] + _STRINGS["src1"])), argv[0]
        assert [sorted(child) for child in calls.values()] == [sorted(set(_STRINGS["src2"]))]


def test_each_patterns_process_matches_its_half_of_the_distinct_strings_once(
        tmp_path, monkeypatch):
    # This process matches the first half of the two dumps' distinct
    # strings and a forked child the rest; both append their calls to one
    # file, and no string is matched in both.
    log = tmp_path / "calls.jsonl"
    matching_ids = patterns._matching_ids

    def count_call(sql, *table):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), sql]) + "\n")
        return matching_ids(sql, *table)
    monkeypatch.setattr(patterns, "_matching_ids", count_call)
    paths = _write_strings(tmp_path)
    log.write_text("")
    assert main(["patterns", "--before", str(paths["src1"]), "--after", str(paths["target"]),
                 "-o", str(tmp_path / "out.json")]) == 0
    calls = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, sql = json.loads(line)
        calls.setdefault(pid, []).append(sql)
    distinct = list(dict.fromkeys(_STRINGS["src1"] + _STRINGS["target"]))
    assert len(calls) == 2
    assert calls.pop(os.getpid()) == distinct[:3]
    assert list(calls.values()) == [distinct[3:]]


@pytest.mark.parametrize("command", ["templates", "align", "ar", "patterns"])
def test_each_command_keys_its_cache_by_its_view_function(corpora, tmp_path, monkeypatch,
                                                          command):
    memos = []
    original = corpus.map_distinct_sql

    def spy(corpus_, fn, memo):
        memo = {} if memo is None else memo
        memos.append(memo)
        return original(corpus_, fn, memo)

    monkeypatch.setattr(corpus, "map_distinct_sql", spy)
    monkeypatch.setattr(patterns, "map_distinct_sql", spy)
    argv = {
        "templates": [corpora["target"]],
        "align": ["--target", corpora["target"], "--source", corpora["near"],
                  "--source", corpora["far"]],
        "ar": ["--target", corpora["target"], "--train", corpora["near"],
               "--pred", corpora["far"], "--c", "1"],
        "patterns": ["--before", corpora["near"], "--after", corpora["far"]],
    }[command]
    assert main([command, *argv, "--sql-field", "SQL", "-o", str(tmp_path / "out")]) == 0
    fn = patterns._matching_ids if command == "patterns" else corpus.templatize
    assert memos and all(list(memo) == [fn] for memo in memos)


# -- what the commands load ------------------------------------------------------

def test_every_command_loads_each_input_once_through_load_corpus(corpora, tmp_path,
                                                                  monkeypatch):
    # The benchmark's loader span wraps cli.load_corpus by name, so a
    # command that read a file some other way would go untimed.
    loaded = []
    load = cli.load_corpus

    def count_load(path, **options):
        loaded.append(str(path))
        return load(path, **options)

    monkeypatch.setattr(cli, "load_corpus", count_load)
    out = str(tmp_path / "out")
    commands = [
        (["templates", corpora["far"], "--report", str(tmp_path / "report.json")], ["far"]),
        (["align", "--target", corpora["target"], "--source", corpora["near"],
          "--source", corpora["far"]], ["target", "near", "far"]),
        (["ar", "--target", corpora["target"], "--train", corpora["near"],
          "--pred", corpora["far"], "--c", "1"], ["target", "near", "far"]),
        (["patterns", "--before", corpora["near"], "--after", corpora["far"]], ["near", "far"]),
        (["sample", corpora["target"], "--fraction", "1"], ["target"]),
        (["sample", corpora["target"], "--group-field", "db_id", "--per-group", "1"],
         ["target"]),
    ]
    for argv, read in commands:
        loaded.clear()
        assert main(argv + ["--sql-field", "SQL", "-o", out]) == 0, argv[0]
        assert loaded == [corpora[name] for name in read], argv[0]


# -- sample ----------------------------------------------------------------------

def test_sample_fraction_roundtrips_through_loader(corpora, tmp_path):
    out = tmp_path / "sample.jsonl"
    code = main(["sample", corpora["target"], "--sql-field", "SQL",
                 "--group-field", "db_id", "--fraction", "0.5", "--seed", "3",
                 "-o", str(out)])
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 2
    assert all(entry["sql"] for entry in lines)
    # output is standard jsonl ingestible by the default field mapping
    code = main(["templates", str(out), "-o", str(tmp_path / "t.txt")])
    assert code == 0


def test_sample_per_group_determinism(corpora, tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    argv = ["sample", corpora["target"], "--sql-field", "SQL",
            "--group-field", "db_id", "--per-group", "1", "--seed", "11"]
    main(argv + ["-o", str(out_a)])
    main(argv + ["-o", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(out_a.read_text().splitlines()) == 3  # one per group


def test_sample_skip_bad_rows_prints_each_warning_once(tmp_path, capsys):
    path = tmp_path / "gaps.jsonl"
    rows = [{"sql": "SELECT 1", "db_id": "a"}, {"db_id": "a"}, {"sql": "SELECT 2"},
            {"sql": " "}, {"sql": "SELECT 3", "db_id": "b"}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["sample", str(path), "--skip-bad-rows", "--group-field", "db_id",
                 "--per-group", "2", "-o", str(out)]) == 0
    assert capsys.readouterr().err == (
        f"sqlalign: warning: {path} row 1: missing or empty field 'sql', skipped\n"
        f"sqlalign: warning: {path} row 3: missing or empty field 'sql', skipped\n"
        f"sqlalign: warning: {path}: skipped 2 bad row(s)\n"
        "sampled 3 of 3 records (seed=0)\n")
    assert [json.loads(line)["sql"] for line in out.read_text().splitlines()] == [
        "SELECT 1", "SELECT 2", "SELECT 3"]


def test_sample_of_a_file_changed_after_its_load_is_data_error(tmp_path, capsys,
                                                              monkeypatch):
    path = tmp_path / "c.jsonl"
    path.write_text('{"sql": "SELECT 1"}\n{"sql": "SELECT 2"}\n', encoding="utf-8")
    sample = cli.sample_corpus

    def sample_then_edit(corpus, **options):
        path.write_text('{"sql": "SELECT 1"}\n{"sql": "SELECT 7"}\n', encoding="utf-8")
        return sample(corpus, **options)

    monkeypatch.setattr(cli, "sample_corpus", sample_then_edit)
    out = tmp_path / "out.jsonl"
    assert main(["sample", str(path), "--fraction", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"sqlalign: error: {path} row 1: SQL changed since the file was loaded\n")
    assert not out.exists()


def test_sample_per_group_keeps_a_falsy_group_apart(tmp_path):
    path = tmp_path / "c.json"
    rows = [{"sql": "SELECT 1", "db_id": 0}, {"sql": "SELECT 2", "db_id": 0},
            {"sql": "SELECT 3"}, {"sql": "SELECT 4"}, {"sql": "SELECT 5", "db_id": 1}]
    path.write_text(json.dumps(rows))
    out = tmp_path / "out.jsonl"
    assert main(["sample", str(path), "--group-field", "db_id", "--per-group", "1",
                 "-o", str(out)]) == 0
    groups = [json.loads(line)["group_id"] for line in out.read_text().splitlines()]
    assert sorted(groups) == ["", "0", "1"]


def test_sample_per_group_without_group_field_is_usage_error(corpora, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", corpora["target"], "--sql-field", "SQL", "--per-group", "1"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith("error: --per-group requires --group-field\n")


def test_sample_group_field_that_no_row_holds_is_data_error(tmp_path, capsys):
    path = tmp_path / "g.jsonl"
    path.write_text("".join(json.dumps({"sql": f"SELECT {i}", "db_id": f"db{i % 2}"}) + "\n"
                            for i in range(3)), encoding="utf-8")
    assert main(["sample", str(path), "--group-field", "nope", "--per-group", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"sqlalign: error: {path}: no row holds field 'nope'\n"
    assert captured.out == ""


def test_sample_question_field_that_no_row_holds_is_data_error(tmp_path, capsys):
    # The load does not read the question field; the re-read of the chosen
    # rows checks it, before any output is written.
    path = tmp_path / "g.jsonl"
    path.write_text("".join(json.dumps({"sql": f"SELECT {i}", "db_id": f"db{i % 2}"}) + "\n"
                            for i in range(3)), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["sample", str(path), "--question-field", "nope", "--fraction", "1",
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"sqlalign: error: {path}: no row holds field 'nope'\n"
    assert not out.exists()
    # With neither field held, the load fails first, on the group field.
    assert main(["sample", str(path), "--question-field", "nope", "--group-field", "gone",
                 "--per-group", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"sqlalign: error: {path}: no row holds field 'gone'\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["templates", "f.jsonl", "--l-max", "0"], "--l-max must be >= 1"),
    (["sample", "f.jsonl", "--per-group", "0", "--group-field", "db_id"],
     "--per-group must be >= 1"),
    (["templates", "f.jsonl", "--alpha", "1"], "unrecognized arguments: --alpha 1"),
], ids=["l-max-0", "per-group-0", "templates-alpha"])
def test_out_of_range_or_unknown_option_is_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_sample_unencodable_text_is_data_error(tmp_path, capsys):
    path = tmp_path / "lone.jsonl"
    path.write_text('{"sql": "SELECT 1", "q": "\\ud800"}\n', encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["sample", str(path), "--fraction", "1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sqlalign: error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("fields", [
    [],  # the surplus cells would land under the key None and be dropped
    ["--question-field", "question", "--group-field", "db_id"],  # sorting meta keys hit None
], ids=["default-fields", "question-and-group-fields"])
def test_sample_csv_row_longer_than_header_is_data_error(tmp_path, capsys, fields):
    path = tmp_path / "c.csv"
    path.write_text("sql,question,db_id,extra\nSELECT 1,q,d,e,surplus\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["sample", str(path), "--fraction", "1", "-o", str(out)] + fields) == 2
    assert capsys.readouterr().err == f"sqlalign: error: {path} row 0: more fields than the header\n"
    assert not out.exists()


def test_sample_rejects_bad_fraction(corpora):
    with pytest.raises(SystemExit) as exc:
        main(["sample", corpora["target"], "--fraction", "1.5"])
    assert exc.value.code == 1


# -- patterns ---------------------------------------------------------------------

def test_patterns_csv_table(corpora, tmp_path):
    out = tmp_path / "patterns.csv"
    code = main(["patterns", "--before", corpora["far"], "--after",
                 corpora["target"], "--sql-field", "SQL", "--format", "csv",
                 "-o", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = {r["pattern_id"]: r for r in csv.DictReader(fh)}
    assert set(rows) == {"attr_comma_sum", "bare_sum", "count_star", "count_attr",
                         "case_when", "iif", "union_op", "subquery"}
    assert rows["case_when"]["direction"] == "down"
    assert rows["count_star"]["delta"] == "1"


def test_patterns_json_reports_parse_failures(corpora, tmp_path):
    out = tmp_path / "patterns.json"
    main(["patterns", "--before", corpora["far"], "--after", corpora["near"],
          "--sql-field", "SQL", "-o", str(out)])
    rep = read_json(out)
    assert rep["parse_failures"] == {"before": 1, "after": 0}
    assert rep["patterns"]["case_when"]["before"] == 1


# -- report config ---------------------------------------------------------------

LOAD_OPTIONS = {"input_format", "skip_bad_rows", "sql_field"}


@pytest.mark.parametrize("argv, keys", [
    (["templates", "{target}", "-o", "{out}.txt", "--report", "{out}"],
     LOAD_OPTIONS | {"l_max"}),
    (["align", "--target", "{target}", "--source", "{near}", "-o", "{out}"],
     LOAD_OPTIONS | {"l_max", "alpha", "c", "log_base", "output_format"}),
    (["ar", "--target", "{target}", "--train", "{near}", "--pred", "{far}", "--c", "1",
      "-o", "{out}"],
     LOAD_OPTIONS | {"l_max", "alpha", "c", "log_base"}),
    (["patterns", "--before", "{far}", "--after", "{near}", "-o", "{out}"],
     LOAD_OPTIONS | {"output_format"}),
])
def test_each_report_echoes_the_options_its_command_parsed(corpora, tmp_path, argv, keys):
    out = tmp_path / "report.json"
    argv = [a.format(out=out, **corpora) for a in argv] + ["--sql-field", "SQL"]
    assert main(argv) == 0
    config = read_json(out)["config"]
    assert set(config) == keys
    assert config["sql_field"] == "SQL"
    assert "seed" not in config and "c_mode" not in config


@pytest.mark.parametrize("option", ["--question-field", "--group-field"])
@pytest.mark.parametrize("argv", [
    ["templates", "f.jsonl"],
    ["align", "--target", "t.jsonl", "--source", "s.jsonl"],
    ["ar", "--target", "t.jsonl", "--train", "a.jsonl", "--pred", "p.jsonl", "--c", "1"],
    ["patterns", "--before", "b.jsonl", "--after", "a.jsonl"],
], ids=["templates", "align", "ar", "patterns"])
def test_the_views_refuse_the_question_and_group_fields(argv, option, capsys):
    # No view reads either field; only sample takes them.
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, "db_id"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {option} db_id\n")


def test_every_argument_kept_out_of_the_config_is_one_a_command_parses():
    parser = build_parser()
    parsed = set()
    for argv in (["templates", "f"], ["align", "--target", "t", "--source", "s"],
                 ["ar", "--target", "t", "--train", "a", "--pred", "p", "--c", "1"],
                 ["sample", "f", "--fraction", "0.5"],
                 ["patterns", "--before", "b", "--after", "a"]):
        parsed |= set(vars(parser.parse_args(argv)))
    assert _NOT_ECHOED <= parsed


# -- report serialization ----------------------------------------------------------

def test_dumps_report_is_deterministic_and_fixed_precision():
    report = {"b": 0.5, "a": {"y": 1 / 3, "x": True}, "list": [1, 2.0, None, "s"]}
    text = dumps_report(report)
    assert text == ('{"a": {"x": true, "y": 0.333333}, "b": 0.500000, '
                    '"list": [1, 2.000000, null, "s"]}\n')


def _readme_cli_examples():
    """Every `sqlalign ...` command in README's CLI section, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("sqlalign ")]


def test_readme_cli_examples_parse():
    examples = _readme_cli_examples()
    assert {argv[0] for argv in examples} == {"templates", "align", "ar", "sample", "patterns"}
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)


@pytest.mark.parametrize("with_fork", [
    pytest.param(True, marks=pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")),
    False])
@pytest.mark.parametrize("n", range(1, 6))
def test_in_two_processes_gives_the_work_of_every_item_in_order(n, with_fork, tmp_path,
                                                                 monkeypatch):
    # A forked child works the last n // 2 items and this process the
    # rest; one item, or no os.fork, keeps all the work here. Items 1 and
    # 3 give a ParseError and item 2 an EmptyDistributionError, so the
    # child's items hold both errors at n = 4. An error crosses without
    # encode and comes back as its class with the same text, a ParseError
    # with its message and position; encode sees every other value.
    items = [f"item {i}" for i in range(n)]
    half = n - n // 2
    forked, worked = [], []
    encoded = tmp_path / "encoded.jsonl"
    if with_fork:
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", counted)
    else:
        monkeypatch.delattr(os, "fork")

    def values_of(part):
        return [ParseError("expected table name", 18) if item in ("item 1", "item 3")
                else EmptyDistributionError(f"{item}: none of its 3 records parsed")
                if item == "item 2" else (item, item.upper()) for item in part]

    def work(part):
        worked.append(part)  # the child appends to its own copy
        return values_of(part)

    def encode(value):
        with open(encoded, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), value]) + "\n")
        return value[::-1]

    def seen(values):
        return [(type(v), str(v), getattr(v, "message", None), getattr(v, "position", None))
                if isinstance(v, Exception) else v for v in values]

    values = cli._in_two_processes(items, work, encode, lambda entry: entry[::-1])
    assert seen(values) == seen(values_of(items))
    lines = ([json.loads(line) for line in encoded.read_text(encoding="utf-8").splitlines()]
             if encoded.exists() else [])
    if with_fork and n > 1:
        assert len(forked) == 1 and worked == [items[:half]]
        assert [pid for pid, _ in lines] == [forked[0]] * len(lines)
        assert [value for _, value in lines] == [
            list(v) for v in values_of(items[half:]) if isinstance(v, tuple)]
    else:
        assert forked == [] and worked == [items] and lines == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
