"""Calibration process for the benchmark's timings.

A fixed amount of pure-Python work of the same kind as the CLI's (regex
tokenizing, building and counting token windows in a dict), on fixed
inputs, in a fresh interpreter. It uses nothing from sqlalign, so a change
to the program cannot change its cost; only the speed of the host can.
run.py times one probe right before each CLI invocation and reports the
invocation's wall time divided by the probe's, so that host-wide speed
swings cancel out of the figures.

Usage: python3 bench/probe.py
"""

from __future__ import annotations

import math
import random
import re

from gen import LOREP_SHAPES, Composer

QUERIES = 160
_TOKEN = re.compile(r"\s*(?:[A-Za-z_][A-Za-z0-9_]*|\d+|'[^']*'|.)")


def work() -> float:
    """Tokenize fixed queries, count the balanced windows of their
    templates in two dicts keyed by token tuples, and sum a log ratio over
    the union of both."""
    composer = Composer(random.Random(0), LOREP_SHAPES["target"])
    halves: tuple[dict, dict] = ({}, {})
    tokens = 0
    for i in range(QUERIES):
        sql, template, _ = composer.query()
        tokens += len(_TOKEN.findall(sql))
        words = tuple(template.split(" "))
        counts = halves[i % 2]
        for n in range(1, min(15, len(words)) + 1):
            for start in range(len(words) - n + 1):
                gram = words[start:start + n]
                if gram[0] != "," and gram[-1] != "," and gram.count("(") == gram.count(")"):
                    counts[gram] = counts.get(gram, 0) + 1
    p, q = halves
    return tokens + sum(math.log((p.get(g, 0) + 0.5) / (q.get(g, 0) + 0.5))
                        for g in p.keys() | q.keys())


if __name__ == "__main__":
    work()
