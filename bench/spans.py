"""Span tracing for the benchmark's traced run.

The traced run calls ``sqlalign.cli.main(argv)`` in process. Before it,
``installed`` replaces each public function under the name its caller
looks it up by (``parse_sql`` both as ``templates.parse_sql`` and as
``patterns.parse_sql``) with a wrapper that records a span, and restores
the originals afterwards. Spans stay in memory and are written out when
the run ends.

A span is the tuple (id, name, command, parent, start, end, covered_end,
ok, count). ``covered_end`` also includes the wrapper's own bookkeeping
after ``end`` (for instance sizing a vocabulary), so a parent's self time,
its duration minus what its children cover, does not absorb it.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

from reference import L_MAX

# (module, attribute) pairs that are wrapped; the span name is
# "module.attribute".
TARGETS = (
    ("cli", "load_corpus"), ("cli", "templatize_corpus"), ("cli", "batch_align"),
    ("cli", "alignment_ratio"), ("cli", "ovlp_ratio"), ("cli", "count_patterns"),
    ("cli", "write_distribution"),
    ("corpus", "templatize"), ("corpus", "build_distribution"),
    ("templates", "parse_sql"), ("templates", "derive_template"),
    ("parsing", "tokenize"),
    ("patterns", "parse_sql"),
    ("metrics", "kl_divergence"),
)


def _windows(templates, l_max: int) -> int:
    """Candidate windows of 1..l_max tokens over all templates."""
    total = 0
    for template in templates:
        length = len(template)
        top = min(l_max, length)
        total += top * length - top * (top - 1) // 2
    return total


# Counts recorded at a span's end, from its arguments and result.
COUNTERS = {
    "cli.load_corpus": lambda args, kwargs, result: len(result),
    "cli.count_patterns": lambda args, kwargs, result: len(args[0]),
    "parsing.tokenize": lambda args, kwargs, result: len(result),
    "corpus.build_distribution": lambda args, kwargs, result: (
        len(args[0]), _windows(args[0], kwargs.get("l_max", L_MAX)), result.total),
    "metrics.kl_divergence": lambda args, kwargs, result: len(
        args[0].counts.keys() | args[1].counts.keys()),
}


class Tracer:
    """Collects spans; ``command`` tags the spans of one CLI invocation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.command = 0
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                count = counter(args, kwargs, result) if ok and counter else 0
                spans.append((span_id, name, self.command, parent, start, end,
                              perf_counter(), ok, count))

        return traced

    def write(self, path) -> None:
        """One tab-separated line per span, times in microseconds from the
        first span's start."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id\tname\tcommand\tparent\tstart_us\tend_us\tok\tcount\n")
            for s in sorted(self.spans):
                fh.write(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{(s[4] - origin) * 1e6:.1f}\t"
                         f"{(s[5] - origin) * 1e6:.1f}\t{int(s[7])}\t{s[8]}\n")


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Wrap every TARGETS function of ``modules`` (name -> module object)
    for the duration of the block."""
    saved = []
    try:
        for module_name, attr in TARGETS:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            name = f"{module_name}.{attr}"
            setattr(module, attr, tracer.wrap(name, original, COUNTERS.get(name)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """span id -> its duration minus the time its direct children cover."""
    covered: dict[int, float] = {}
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] = covered.get(s[3], 0.0) + (s[6] - s[4])
    return {s[0]: (s[5] - s[4]) - covered.get(s[0], 0.0) for s in spans}


def layer_metrics(spans: list[tuple], rounds: int, distinct_sql_per_round: int) -> dict:
    """Per-layer metrics over ``rounds`` traced rounds of the four commands.

    Counts are per round; times per call are means over all rounds.
    """
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    selfs = self_times(spans)

    def get(name):
        return by_name.get(name, [])

    def dur(group):
        return sum(s[5] - s[4] for s in group)

    def self_sum(group):
        return sum(selfs[s[0]] for s in group)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    tokenize = get("parsing.tokenize")
    parses = get("templates.parse_sql") + get("patterns.parse_sql")
    failed = [s for s in parses if not s[7]]
    derive = get("templates.derive_template")
    builds = get("corpus.build_distribution")
    templates_in = sum(s[8][0] for s in builds)
    windows = sum(s[8][1] for s in builds)
    kept = sum(s[8][2] for s in builds)
    kl = get("metrics.kl_divergence")
    vocab = sum(s[8] for s in kl)
    ovlp = get("cli.ovlp_ratio")
    count_patterns = get("cli.count_patterns")
    loads = get("cli.load_corpus")
    return {
        "parsing.tokenize.us_per_call": per(dur(tokenize) * 1e6, len(tokenize)),
        "parsing.parse_sql.self_us_per_call": per(self_sum(parses) * 1e6, len(parses)),
        "parsing.tokens_per_s": per(sum(s[8] for s in tokenize), dur(parses)),
        "parsing.parse_sql.calls": len(parses) / rounds,
        "parsing.reparse_ratio": per(len(parses) / rounds, distinct_sql_per_round),
        "parsing.fail_share": per(len(failed), len(parses)),
        "parsing.failed_call_us": per(dur(failed) * 1e6, len(failed)),
        "templates.derive_template.us_per_call": per(dur(derive) * 1e6, len(derive)),
        "ngrams.build_distribution.us_per_template": per(dur(builds) * 1e6, templates_in),
        "ngrams.windows": windows / rounds,
        "ngrams.valid_share": per(kept, windows),
        "ngrams.write_distribution.s": per(dur(get("cli.write_distribution")), rounds),
        "metrics.kl_divergence.ms_per_call": per(dur(kl) * 1e3, len(kl)),
        "metrics.kl_divergence.ns_per_vocab": per(dur(kl) * 1e9, vocab),
        "metrics.union_vocab": per(vocab, len(kl)),
        "metrics.ovlp_ratio.ms_per_call": per(dur(ovlp) * 1e3, len(ovlp)),
        "patterns.count_patterns.self_us_per_record": per(
            self_sum(count_patterns) * 1e6, sum(s[8] for s in count_patterns)),
        "patterns.parse_share": per(dur(get("patterns.parse_sql")), dur(count_patterns)),
        "corpus.load_corpus.us_per_record": per(dur(loads) * 1e6, sum(s[8] for s in loads)),
        "corpus.templatize_corpus.self_s": self_sum(get("cli.templatize_corpus")) / rounds,
        "cli.self_s": self_sum(get("cli.main")) / rounds,
    }
