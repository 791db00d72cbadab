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
it parses each distinct SQL string once; reports stay per corpus.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings

from .corpus import SqlCorpus, load_corpus, read_rows, sample_corpus, templatize_corpus
from .errors import SqlAlignError
from .metrics import DEFAULT_ALPHA, alignment_ratio, batch_align, ovlp_ratio
from .ngrams import DEFAULT_L_MAX, write_distribution
from .patterns import count_patterns, diff_pattern_counts


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
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


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


def cmd_align(args) -> int:
    memo = {}
    target_corpus = _load(args, args.target)
    target = templatize_corpus(target_corpus, l_max=args.l_max, memo=memo)
    target_set = {t.tokens for t in target.templates}

    rows = []
    loaded = []  # (row, corpus, result) of every source that loaded
    for source_path in args.source:
        row = {"target": str(args.target), "source": str(source_path)}
        rows.append(row)
        try:
            source_corpus = _load(args, source_path)
            loaded.append((row, source_corpus,
                           templatize_corpus(source_corpus, l_max=args.l_max, memo=memo)))
        except SqlAlignError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"

    if loaded:
        scores = batch_align(target.distribution,
                             [result.distribution for _, _, result in loaded],
                             alpha=args.alpha, c=args.c)
        for (row, source_corpus, result), score in zip(loaded, scores):
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
    memo = {}
    target = templatize_corpus(_load(args, args.target), l_max=args.l_max, memo=memo)
    train = templatize_corpus(_load(args, args.train), l_max=args.l_max, memo=memo)
    pred = templatize_corpus(_load(args, args.pred), l_max=args.l_max, memo=memo)
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


def cmd_patterns(args) -> int:
    memo = {}
    before = count_patterns(_load(args, args.before), memo=memo)
    after = count_patterns(_load(args, args.after), memo=memo)
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


if __name__ == "__main__":
    sys.exit(main())
