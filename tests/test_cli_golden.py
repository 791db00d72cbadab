"""The command line reproduces the committed golden file byte for byte:
exit codes, stdout, stderr and output files (see cli_golden)."""

import json

import pytest

import cli_golden
from cli_golden import CASES, committed_lines, golden_lines


def test_cli_outputs_match_the_golden_file():
    committed = committed_lines()
    assert len(committed) == len(CASES)
    assert golden_lines() == committed


def test_rerecord_rewrites_only_the_named_cases_line(tmp_path, monkeypatch):
    head = committed_lines()[:3]
    stale = [line.replace('"exit": ', '"exit": 1') for line in head]
    assert all(old != new for old, new in zip(head, stale))
    path = tmp_path / "golden.jsonl"
    path.write_text("\n".join(stale) + "\n", encoding="utf-8")
    monkeypatch.setattr(cli_golden, "GOLDEN_PATH", path)
    cli_golden.main(["--rerecord", json.loads(head[1])["case"]])
    assert path.read_text(encoding="utf-8") == "\n".join([stale[0], head[1], stale[2]]) + "\n"
    with pytest.raises(SystemExit, match="^not a recorded case of CASES: nope$"):
        cli_golden.main(["--rerecord", "nope"])
    assert path.read_text(encoding="utf-8") == "\n".join([stale[0], head[1], stale[2]]) + "\n"
