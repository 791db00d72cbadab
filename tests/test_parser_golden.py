"""The parser reproduces the committed golden file on every input: error
text, or template, pattern ids and full tree digest (see parser_golden)."""

import json

from parser_golden import GOLDEN_PATH, record


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
