"""Upkeep of a committed golden file, shared by ``cli_golden.py`` and
``parser_golden.py``.

A golden file holds one JSON line per input, in input order, and names
the input by one of its fields, the line's key. A recorder appends the
lines of the inputs added since the file was written and keeps every
committed line byte for byte; asked to re-record named keys, it rewrites
only their lines, in place, and refuses a key that is not committed.
"""

from __future__ import annotations

import json
from pathlib import Path


def committed_lines(path: Path) -> list[str]:
    if not path.exists():
        return []
    # Split on "\n" alone: a line's JSON may hold other line separators.
    return [line for line in path.read_text(encoding="utf-8").split("\n") if line]


def append_or_rerecord(path: Path, field: str, keys: list[str], lines_of, rerecord: list[str],
                       misordered: str, refused) -> None:
    """Bring the file at ``path`` up to date with ``keys``, the key of
    every input in order; ``lines_of(keys)`` records the given inputs, one
    line each. Without ``rerecord`` the lines of the keys past the
    committed ones are appended; with it, the lines whose ``field`` is one
    of its keys are rewritten in place. A file that does not start with
    ``keys`` exits with ``misordered``, and keys that are not committed
    with ``refused(keys)``."""
    lines = committed_lines(path)
    done = [json.loads(line)[field] for line in lines]
    if keys[:len(done)] != done:
        raise SystemExit(misordered)
    if not rerecord:
        with open(path, "a", encoding="utf-8", newline="\n") as fh:
            for line in lines_of(keys[len(done):]):
                fh.write(line + "\n")
        return
    unknown = [key for key in rerecord if key not in done]
    if unknown:
        raise SystemExit(refused(unknown))
    named = [key for key in dict.fromkeys(done) if key in rerecord]
    fresh = dict(zip(named, lines_of(named)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, line in zip(done, lines):
            fh.write(fresh.get(key, line) + "\n")
