"""Command-line front end.

Commands:
  templates  derive structural templates from a corpus
  align      KL-alignment and template-overlap of sources against a target
  ar         alignment ratio of a training set vs baseline predictions
  sample     deterministic sub-sampling of a corpus
  patterns   traceable-pattern count diff between two corpora

Every report embeds the options its command parsed. JSON output has sorted
keys and fixed 6-decimal floats, so identical inputs and flags produce
byte-identical reports. Exit codes: 0 success, 1 usage error, 2 data error.

A command that reads several corpora keeps one run memo for them all, so
it parses each distinct SQL string once; reports stay per corpus. The
exceptions fork once, all through ``_in_two_processes``: over n items, a
forked child works the last ``n // 2`` and this process the rest, the
larger half, each with its own memo. The child's values cross in one
``marshal`` write: an error as its class name and constructor arguments,
any other value as a tuple of builtins. With one item, without
``os.fork``, while another thread is alive (forking then is unsafe), or
when the fork fails, this process works every item, and the command
writes the same bytes. ``align`` and ``ar`` split their corpora, in
command order, when there are three or more: ``ar`` 2|1 (the child takes
``--pred``) and ``align`` over four corpora 2|2. ``ar`` loads all three
files before it templatizes any, so a later file's load error or skip
warning prints before an earlier file's template error. ``patterns``
loads both dumps, then splits their distinct strings, each once in
first-seen order, so a string that both dumps hold is matched once.

``python -m sqlalign.cli`` and the ``sqlalign`` script end through
``run``: once the command has its exit code, it flushes stdout and stderr
and calls ``os._exit``. Each command is a short process, and the
interpreter's own exit would first free every module and object, a few
milliseconds per run. Every file a command writes is closed before its
code returns, so no buffered write is lost. A report that cannot reach
stdout, whose pipe is closed or whose descriptor is, is a data error.
``main(argv)`` returns the code and never ends the process.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import marshal
import math
import os
import sys
import threading
import warnings

from . import errors, patterns
from .corpus import (SqlCorpus, TemplatizeResult, load_corpus, map_distinct_sql, read_rows,
                     sample_corpus, templatize_corpus)
from .errors import SqlAlignError
from .metrics import DEFAULT_ALPHA, alignment_ratio, batch_align, ovlp_ratio
from .ngrams import DEFAULT_L_MAX, NGramDistribution, write_distribution
from .patterns import count_patterns, diff_pattern_counts
from .templates import StructuralTemplate


def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(
            f"{json.dumps(str(k), ensure_ascii=False)}: {_json_value(v)}" for k, v in items
        ) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_report(report: dict) -> str:
    """Deterministic JSON: sorted keys, floats with 6 decimals, one
    trailing newline."""
    return _json_value(report) + "\n"


def _write_text(path: str | None, text: str) -> None:
    data = text.encode("utf-8")  # an unencodable text fails before the file exists
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(data)
    elif sys.stdout is None:  # file descriptor 1 was closed when the process began
        raise OSError("no standard output")
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:  # what stays buffered goes, so the exit's flush succeeds
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise


def _write_csv(path: str | None, fieldnames: list[str], rows: list[dict]) -> None:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:  # csv writes None as an empty field
        writer.writerow({k: f"{v:.6f}" if isinstance(v, float) else v for k, v in row.items()})
    _write_text(path, out.getvalue())


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for data
    errors, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _field_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sql-field", default="sql",
                        help="row field holding the SQL string (default: sql)")
    parser.add_argument("--input-format", choices=("json", "jsonl", "csv"), default=None,
                        help="container format (default: inferred from file extension)")
    parser.add_argument("--skip-bad-rows", action="store_true",
                        help="skip and count rows without usable SQL instead of failing")


def _l_max_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l-max", type=int, default=DEFAULT_L_MAX,
                        help=f"maximum n-gram length (default: {DEFAULT_L_MAX})")


def _metric_options(parser: argparse.ArgumentParser) -> None:
    _l_max_option(parser)
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                        help=f"additive smoothing constant (default: {DEFAULT_ALPHA})")


def _output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--format", dest="output_format", choices=("json", "csv"),
                        default="json", help="report format (default: json)")


def _load(args, path) -> SqlCorpus:
    """A corpus file's SQL column, all that a view reads, and its groups
    for a command that takes --group-field. Every command loads each of
    its files here once."""
    return load_corpus(path, sql_field=args.sql_field,
                       group_field=getattr(args, "group_field", None),
                       input_format=args.input_format, skip_bad_rows=args.skip_bad_rows)


# The command selector and the files a command reads or writes; every
# other argument is a setting that shaped the report.
_NOT_ECHOED = frozenset({"command", "func", "input", "output", "report", "distribution",
                         "target", "source", "train", "pred", "before", "after"})


def _config(args) -> dict:
    """The options the command parsed; echoed into its report."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    if "alpha" in config:
        config["log_base"] = "e"  # divergences are in nats
    return config


# -- commands ------------------------------------------------------------


def cmd_templates(args) -> int:
    corpus = _load(args, args.input)
    result = templatize_corpus(corpus, l_max=args.l_max)
    _write_text(args.output, "".join(t.canonical_text + "\n" for t in result.templates))
    if args.distribution:
        write_distribution(result.distribution, args.distribution)
    if args.report:
        report = {
            "config": _config(args),
            "corpus": corpus.name,
            "n_records": len(corpus),
            "parsed": len(result.templates),
            "failed": len(result.failures),
            "failures": [{"index": i, "message": m} for i, m in result.failures],
        }
        _write_text(args.report, dumps_report(report))
    print(f"{corpus.name}: parsed={len(result.templates)} failed={len(result.failures)}",
          file=sys.stderr)
    return 0


def _in_two_processes(items: list, work, encode=tuple, decode=tuple) -> list:
    """``work(items)``, a list with one value per item. A forked child
    works the last ``len(items) // 2`` items while this process works the
    rest, the larger half. The child replies in one ``marshal`` write to a
    pipe, one entry per value: a SqlAlignError as a list of its class name
    and the arguments its ``__reduce__`` gives, rebuilt from
    ``sqlalign.errors``; any other value as ``encode(value)``, a tuple of
    builtins, which ``decode`` turns back (a tuple by default, as it is).
    The child is reaped on every path, and killed first on an error path.
    A run that succeeds imports neither signal nor traceback. With one
    item, without ``os.fork``, while another thread is alive, or when the
    fork fails, this process works every item."""
    half = len(items) - len(items) // 2
    if half == len(items) or not hasattr(os, "fork") or threading.active_count() > 1:
        return work(items)
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: all the work is done here
        os.close(read_end)
        os.close(write_end)
        return work(items)
    if pid == 0:  # the child leaves by os._exit alone, whatever happens
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps([[type(v).__name__, v.__reduce__()[1]]
                                          if isinstance(v, SqlAlignError) else encode(v)
                                          for v in work(items[half:])]))
            status = 0
        except Exception:
            import traceback
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_end)
    pipe = open(read_end, "rb")
    reply = None
    try:
        first = work(items[:half])
        reply = pipe.read()
    finally:
        if reply is None:  # an error path: stop the child before it can fail writing
            import signal
            os.kill(pid, signal.SIGKILL)
        pipe.close()
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"the forked process exited with status {code}")
    return first + [getattr(errors, entry[0])(*entry[1]) if isinstance(entry, list)
                    else decode(entry) for entry in marshal.loads(reply)]


def _templatize_all(corpora: list[SqlCorpus], l_max: int) -> list:
    """Each corpus's TemplatizeResult, or the SqlAlignError it raised, in
    order; each process templatizes its corpora through one run memo.
    With three or more corpora the work goes through
    ``_in_two_processes``: ``ar`` splits 2|1 and ``align`` over four
    corpora 2|2. A result crosses as its counts, source label, template
    tokens and failures."""
    def work(part: list[SqlCorpus]) -> list:
        memo = {}
        outcomes = []
        for corpus in part:
            try:
                outcomes.append(templatize_corpus(corpus, l_max=l_max, memo=memo))
            except SqlAlignError as exc:
                outcomes.append(exc)
        return outcomes
    if len(corpora) < 3:
        return work(corpora)
    shared = {}  # one StructuralTemplate per distinct token tuple of the child's results

    def encode(result: TemplatizeResult) -> tuple:
        return (result.distribution.counts, result.distribution.source_label,
                [t.tokens for t in result.templates], result.failures)

    def decode(reply: tuple) -> TemplatizeResult:
        counts, source_label, all_tokens, failures = reply
        shared.update((tokens, StructuralTemplate(tokens))
                      for tokens in dict.fromkeys(all_tokens) if tokens not in shared)
        return TemplatizeResult([shared[tokens] for tokens in all_tokens],
                                NGramDistribution(counts, l_max, source_label), failures)
    return _in_two_processes(corpora, work, encode, decode)


def cmd_align(args) -> int:
    target_corpus = _load(args, args.target)
    rows = []
    loaded = []  # (row, corpus) of every source that loaded
    for source_path in args.source:
        row = {"target": str(args.target), "source": str(source_path)}
        rows.append(row)
        try:
            loaded.append((row, _load(args, source_path)))
        except SqlAlignError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"

    target, *outcomes = _templatize_all([target_corpus] + [c for _, c in loaded], args.l_max)
    if isinstance(target, SqlAlignError):
        raise target
    target_set = {t.tokens for t in target.templates}
    scored = []  # (row, corpus, result) of every source that templated
    for (row, source_corpus), outcome in zip(loaded, outcomes):
        if isinstance(outcome, SqlAlignError):
            row["error"] = f"{type(outcome).__name__}: {outcome}"
        else:
            scored.append((row, source_corpus, outcome))

    if scored:
        scores = batch_align(target.distribution,
                             [result.distribution for _, _, result in scored],
                             alpha=args.alpha, c=args.c)
        for (row, source_corpus, result), score in zip(scored, scores):
            row.update({
                "d_kl": score.d_kl,
                "a_kl": score.a_kl,
                "ovlp": ovlp_ratio(target_set, {t.tokens for t in result.templates}),
                "c": score.c,
                "alpha": score.alpha,
                "l_max": args.l_max,
                "n_target_queries": len(target_corpus),
                "n_source_queries": len(source_corpus),
                "parse_failures": {"target": len(target.failures),
                                   "source": len(result.failures)},
            })

    n_errors = sum("error" in row for row in rows)
    if args.output_format == "csv":
        for row in rows:
            failures = row.pop("parse_failures", {})
            row["parse_failures_target"] = failures.get("target")
            row["parse_failures_source"] = failures.get("source")
        fields = ["target", "source", "d_kl", "a_kl", "ovlp", "c", "alpha",
                  "l_max", "n_target_queries", "n_source_queries",
                  "parse_failures_target", "parse_failures_source", "error"]
        _write_csv(args.output, fields, rows)
    else:
        _write_text(args.output, dumps_report({"config": _config(args), "rows": rows}))
    print(f"align: {len(rows)} row(s), {n_errors} error(s)", file=sys.stderr)
    return 2 if n_errors else 0


def cmd_ar(args) -> int:
    paths = (args.target, args.train, args.pred)
    outcomes = _templatize_all([_load(args, path) for path in paths], args.l_max)
    for outcome in outcomes:
        if isinstance(outcome, SqlAlignError):
            raise outcome
    target, train, pred = outcomes
    ratio = alignment_ratio(target.distribution, train.distribution,
                            pred.distribution, alpha=args.alpha, c=args.c)
    report = {
        "config": _config(args),
        "target": str(args.target),
        "train": str(args.train),
        "pred": str(args.pred),
        "ar": ratio.ar,
        "sft_recommended": ratio.ar > 1.0,
        "note": ("heuristic: ar > 1 predicts that fine-tuning on the training "
                 "set improves accuracy on the target; ar <= 1 predicts little "
                 "or negative change"),
        "numerator": ratio.numerator._asdict(),
        "denominator": ratio.denominator._asdict(),
        "parse_failures": {"target": len(target.failures), "train": len(train.failures),
                           "pred": len(pred.failures)},
    }
    _write_text(args.output, dumps_report(report))
    print(f"ar={ratio.ar:.6f} sft_recommended={ratio.ar > 1.0}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    corpus = _load(args, args.input)
    chosen = sample_corpus(corpus, fraction=args.fraction, per_group=args.per_group,
                           seed=args.seed)
    rows = read_rows(corpus, chosen, question_field=args.question_field)
    _write_text(args.output, "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"
                                     for row in rows))
    print(f"sampled {len(rows)} of {len(corpus)} records (seed={args.seed})", file=sys.stderr)
    return 0


def _match_each(sqls: list[str], memo: dict) -> list:
    """The patterns view's value of each string, its pattern ids or the
    ParseError it raised, matched through ``memo``."""
    map_distinct_sql(SqlCorpus("", tuple(sqls)), patterns._matching_ids, memo)
    strings = memo[patterns._matching_ids][0]
    return [strings[sql] for sql in sqls]


def cmd_patterns(args) -> int:
    before_corpus, after_corpus = _load(args, args.before), _load(args, args.after)
    # The two dumps' distinct strings, each once in first-seen order; the
    # forked child's values join this process's strings table.
    memo = {}
    sqls = list(dict.fromkeys(before_corpus.sqls + after_corpus.sqls))
    values = _in_two_processes(sqls, lambda part: _match_each(part, memo))
    memo[patterns._matching_ids][0].update(zip(sqls, values))
    before = count_patterns(before_corpus, memo=memo)
    after = count_patterns(after_corpus, memo=memo)
    diff = diff_pattern_counts(before, after)
    if args.output_format == "csv":
        rows = [{"pattern_id": pid, **entry} for pid, entry in diff.items()]
        _write_csv(args.output, ["pattern_id", "before", "after", "delta", "direction"], rows)
    else:
        report = {
            "config": _config(args),
            "before_corpus": before.corpus_name,
            "after_corpus": after.corpus_name,
            "parse_failures": {"before": before.parse_failures,
                               "after": after.parse_failures},
            "patterns": diff,
        }
        _write_text(args.output, dumps_report(report))
    print(f"patterns: before_failures={before.parse_failures} "
          f"after_failures={after.parse_failures}", file=sys.stderr)
    return 0


# -- argument wiring -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sqlalign",
        description=("Structural alignment of text-to-SQL corpora: templates, "
                     "n-gram KL-alignment, overlap and pattern statistics."))
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_ArgumentParser)

    p = sub.add_parser("templates",
                       help="derive structural templates from a corpus")
    p.add_argument("input", help="corpus file (json, jsonl or csv)")
    p.add_argument("-o", "--output", default=None,
                   help="templates file, one canonical template per line (default: stdout)")
    p.add_argument("--report", default=None, help="write a JSON parse report here")
    p.add_argument("--distribution", default=None,
                   help="also export the n-gram distribution as JSON")
    _field_options(p)
    _l_max_option(p)
    p.set_defaults(func=cmd_templates)

    p = sub.add_parser("align",
                       help="score sources against a target corpus")
    p.add_argument("--target", required=True, help="target corpus file")
    p.add_argument("--source", required=True, action="append",
                   help="source corpus file (repeatable)")
    p.add_argument("--c", type=float, default=None,
                   help="fixed alignment scaling constant; omit for max-in-batch")
    _field_options(p)
    _metric_options(p)
    _output_options(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("ar",
                       help="alignment ratio of a training set vs baseline predictions")
    p.add_argument("--target", required=True, help="target corpus file")
    p.add_argument("--train", required=True, help="candidate training corpus file")
    p.add_argument("--pred", required=True, help="baseline model prediction dump")
    p.add_argument("--c", type=float, required=True,
                   help="shared scaling constant (required: the ratio needs one c)")
    _field_options(p)
    _metric_options(p)
    p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_ar)

    p = sub.add_parser("sample",
                       help="deterministic corpus sub-sampling")
    p.add_argument("input", help="corpus file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fraction", type=float, default=None,
                       help="uniform fraction in (0, 1] of records to keep")
    group.add_argument("--per-group", type=int, default=None,
                       help="records to keep per group id")
    p.add_argument("--seed", type=int, default=0, help="sampler seed (default: 0)")
    p.add_argument("-o", "--output", default=None,
                   help="sampled corpus as JSON-lines (default: stdout)")
    p.add_argument("--question-field", default=None,
                   help="row field holding the natural-language question")
    p.add_argument("--group-field", default=None,
                   help="row field holding the database / domain id used for grouping")
    _field_options(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("patterns",
                       help="traceable-pattern count diff between two corpora")
    p.add_argument("--before", required=True, help="corpus before (e.g. base predictions)")
    p.add_argument("--after", required=True, help="corpus after (e.g. post-SFT predictions)")
    _field_options(p)
    _output_options(p)
    p.set_defaults(func=cmd_patterns)

    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    if getattr(args, "l_max", 1) < 1:
        parser.error("--l-max must be >= 1")
    for name in ("alpha", "c"):  # NaN fails both comparisons, so test finiteness
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            parser.error(f"--{name} must be positive and finite")
    fraction = getattr(args, "fraction", None)
    if fraction is not None and not 0 < fraction <= 1:
        parser.error("--fraction must be in (0, 1]")
    per_group = getattr(args, "per_group", None)
    if per_group is not None and per_group < 1:
        parser.error("--per-group must be >= 1")
    if per_group is not None and args.group_field is None:
        parser.error("--per-group requires --group-field")


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"sqlalign: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    # Every warning the command raises is printed when it is raised, as
    # one line, however often the same text recurs.
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (SqlAlignError, OSError, UnicodeEncodeError) as exc:
            print(f"sqlalign: error: {exc}", file=sys.stderr)
            return 2


def run() -> None:
    """``main()``, then ``os._exit`` with the code it returns or argparse
    raises, once stdout and stderr are flushed. A flush that fails falls
    back to ``sys.exit``, so the interpreter reports it as it always has;
    any other exception propagates."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help, or a usage error
        code = exc.code or 0
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
