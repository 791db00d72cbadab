"""Whatever its corpus files hold, a command ends in one of three ways:
its report and summary line (exit 0), a data error (exit 2) or a usage
error (exit 1), and no exception escapes ``cli.main``. Hypothesis writes
the files: rows of mutated inputs of the parser's golden file, in every
format, under a matching or a wrong extension, some with bad UTF-8 or
cut short; generated queries that parse are mixed in, so that commands
over three files succeed too. Each command runs through ``cli.main`` in
this process."""

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parser_golden
from corpusgen import make_mixture_corpus
from sqlalign import cli

GOLDEN_SQL = parser_golden.committed_inputs()

# The line a command that succeeds prints last; align prints it also when
# a source's row holds an error, and then exits 2.
SUMMARY = {
    "templates": r".+: parsed=\d+ failed=\d+",
    "align": r"align: \d+ row\(s\), \d+ error\(s\)",
    "ar": r"ar=\d+\.\d{6} sft_recommended=(True|False)",
    "sample": r"sampled \d+ of \d+ records \(seed=\d+\)",
    "patterns": r"patterns: before_failures=\d+ after_failures=\d+",
}


def _mutated(sql: str, at: int, cut: int, insert: str) -> str:
    at %= len(sql) + 1
    return sql[:at] + insert + sql[at + cut:]


_SQL = st.one_of(
    st.sampled_from(make_mixture_corpus(40, seed=1)),
    st.sampled_from(GOLDEN_SQL),
    st.builds(_mutated, st.sampled_from(GOLDEN_SQL), st.integers(0, 500), st.integers(0, 3),
              st.text(parser_golden.CHAR_ALPHABET, max_size=3)))
_ROW = st.fixed_dictionaries(
    {"sql": st.one_of(_SQL, _SQL, _SQL, st.sampled_from(["", None, 7, ["SELECT 1"]]))},
    optional={"question": st.sampled_from(["q", "", None]),
              "db_id": st.sampled_from(["a", "b", "", 0])})


def _encoded(rows: list[dict], file_format: str) -> bytes:
    if file_format == "json":
        return json.dumps(rows, ensure_ascii=False).encode("utf-8")
    if file_format == "jsonl":
        return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode("utf-8")
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=sorted({k for row in rows for k in row}) or ["sql"],
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


@st.composite
def _corpus_file(draw, directory: Path, name: str, clean: bool) -> str:
    """A corpus file's path: its rows in some format, under its own
    extension and whole if ``clean``, else perhaps damaged."""
    file_format = draw(st.sampled_from(["json", "jsonl", "csv"]))
    data = _encoded(draw(st.lists(_ROW, min_size=int(clean), max_size=6)), file_format)
    if clean:
        damage, suffix = "none", file_format
    else:
        damage = draw(st.sampled_from(["none", "truncated", "bad utf-8"]))
        suffix = draw(st.sampled_from([file_format, "json", "jsonl", "csv", "txt"]))
    at = draw(st.integers(0, len(data)))
    if damage == "truncated":
        data = data[:at]
    elif damage == "bad utf-8":
        data = data[:at] + b"\xff\xc3" + data[at:]
    path = directory / f"{name}.{suffix}"
    path.write_bytes(data)
    return str(path)


def _argv(draw, command: str, directory: Path) -> list[str]:
    clean = draw(st.booleans())  # so that a command over three files may succeed

    def corpus(name):
        return draw(_corpus_file(directory, name, clean))

    def maybe(*options):
        return list(options) if draw(st.booleans()) else []

    l_max = maybe("--l-max", draw(st.sampled_from(["2", "3", "0"])))
    output_format = maybe("--format", "csv")
    argv = {
        "templates": lambda: ["templates", corpus("c"), *l_max,
                              *maybe("--report", str(directory / "report.json")),
                              *maybe("--distribution", str(directory / "dist.json"))],
        "align": lambda: ["align", "--target", corpus("t"), "--source", corpus("s1"),
                          *maybe("--source", corpus("s2")), *l_max, *output_format,
                          *maybe("--c", draw(st.sampled_from(["1", "0.5", "0"])))],
        "ar": lambda: ["ar", "--target", corpus("t"), "--train", corpus("tr"),
                       "--pred", corpus("p"), "--c", "1", *l_max],
        "sample": lambda: ["sample", corpus("c"), *draw(st.sampled_from([
            ["--fraction", "0.5"], ["--per-group", "1", "--group-field", "db_id"]])),
            *maybe("--question-field", "question")],
        "patterns": lambda: ["patterns", "--before", corpus("b"), "--after", corpus("a"),
                             *output_format],
    }[command]()
    return argv + maybe("--skip-bad-rows") + ([] if clean else maybe(
        "--input-format", draw(st.sampled_from(["json", "jsonl", "csv"]))))


def _main(argv: list[str]) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("command", list(SUMMARY))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_command_ends_in_a_report_a_data_error_or_a_usage_error(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        out = directory / "out"
        code, lines = _main(_argv(data.draw, command, directory) + ["-o", str(out)])
        assert lines
        if code == 1:
            assert lines[0].startswith("usage: sqlalign ")
            # argparse names the command; a check after parsing does not
            assert re.fullmatch(rf"sqlalign( {command})?: error: .+", lines[-1])
        elif code == 0 or not lines[-1].startswith("sqlalign: error: "):
            assert code in (0, 2) and re.fullmatch(SUMMARY[command], lines[-1])
            assert out.exists()
            if command == "align":
                assert (code == 0) == lines[-1].endswith(" 0 error(s)")
        else:
            assert code == 2
