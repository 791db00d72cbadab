"""The parser reproduces the committed golden file on every input: error
text, or template, pattern ids and full tree digest (see parser_golden)."""

import json

import pytest

import parser_golden
from parser_golden import GOLDEN_PATH, committed_inputs, golden_inputs, record


def test_parser_matches_the_golden_file():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = [json.loads(line) for line in fh]
    assert len(golden) > 3000
    mismatches = []
    for expected in golden:
        actual = record(expected["sql"])
        if "crash" in expected:
            # The parser that wrote the file escaped with another
            # exception here; any ParseError is the fix.
            expected = {k: v for k, v in expected.items() if k != "crash"}
            expected["error"] = actual.get("error", "a ParseError")
        if actual != expected:
            mismatches.append((expected, actual))
    assert not mismatches, mismatches[:5]


def test_golden_inputs_match_the_committed_file():
    # An edit to golden_inputs() that was never written to the file would
    # otherwise leave its new inputs unchecked.
    assert golden_inputs() == committed_inputs()


def test_rerecord_rewrites_only_the_named_inputs_lines(tmp_path, monkeypatch):
    head = parser_golden.committed_lines()[:3]
    stale = [line.replace('"tokens":"', '"tokens":"0') for line in head]
    assert all(old != new for old, new in zip(head, stale))
    path = tmp_path / "golden.jsonl"
    path.write_text("\n".join(stale) + "\n", encoding="utf-8")
    monkeypatch.setattr(parser_golden, "GOLDEN_PATH", path)
    sql = json.loads(head[1])["sql"]
    parser_golden.main(["--rerecord", sql])
    assert path.read_text(encoding="utf-8") == "\n".join([stale[0], head[1], stale[2]]) + "\n"
    with pytest.raises(SystemExit, match="not a committed input: 'SELECT nope'"):
        parser_golden.main(["--rerecord", "SELECT nope"])
    assert path.read_text(encoding="utf-8") == "\n".join([stale[0], head[1], stale[2]]) + "\n"
