"""Corpus loading, sampling and the templating pipeline.

Corpora arrive as JSON arrays, JSON-lines or CSV files of rows that hold at
least a SQL string; the caller names the fields explicitly. Records keep an
open metadata map with whatever other fields the row carried.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmptyCorpusError, FormatError
from .ngrams import DEFAULT_L_MAX, NGramDistribution, build_distribution
from .parsing import ParseError
from .templates import StructuralTemplate, templatize

log = logging.getLogger(__name__)

CORPUS_KINDS = ("train", "target", "prediction")


@dataclass(frozen=True)
class CorpusRecord:
    """One (question, SQL, group) row. The question may be empty, e.g. in
    model prediction dumps; the SQL may not."""

    sql: str
    question: str = ""
    group_id: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.sql.strip():
            raise ValueError("record sql must be non-empty")


@dataclass(frozen=True)
class Corpus:
    name: str
    kind: str
    records: tuple[CorpusRecord, ...]

    def __post_init__(self):
        if self.kind not in CORPUS_KINDS:
            raise ValueError(f"unknown corpus kind {self.kind!r}; expected one of {CORPUS_KINDS}")
        if not self.records:
            raise ValueError("corpus must contain at least one record")

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SampleSpec:
    """Either a uniform fraction of the corpus or up to per_group records
    from every group, drawn without replacement by a seeded Mersenne
    Twister (random.Random). Original record order is preserved."""

    fraction: float | None = None
    per_group: int | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.fraction is None) == (self.per_group is None):
            raise ValueError("specify exactly one of fraction and per_group")
        if self.fraction is not None and not 0 < self.fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.per_group is not None and self.per_group < 1:
            raise ValueError("per_group must be >= 1")


def _iter_rows(path: Path, input_format: str):
    """Yield (row_index, dict) pairs from a corpus file. Every format is
    read as UTF-8, with or without a byte-order mark."""
    try:
        yield from _read_rows(path, input_format)
    except (UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
        raise FormatError(f"unreadable {input_format} file: {exc}") from exc


def _read_rows(path: Path, input_format: str):
    if input_format == "json":
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise FormatError("expected a JSON array of objects")
        for i, row in enumerate(data):
            if not isinstance(row, dict):
                raise FormatError("expected a JSON object", row=i)
            yield i, row
    elif input_format == "jsonl":
        i = 0
        with open(path, encoding="utf-8-sig") as fh:
            for line in fh:
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise FormatError(f"invalid JSON line: {exc}", row=i) from exc
                if not isinstance(row, dict):
                    raise FormatError("expected a JSON object", row=i)
                yield i, row
                i += 1
    elif input_format == "csv":
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise FormatError("CSV file has no header row")
            for i, row in enumerate(reader):
                if None in row:  # DictReader files surplus cells under the key None
                    raise FormatError("more fields than the header", row=i)
                yield i, row
    else:
        raise FormatError(f"unknown input format {input_format!r}")


def _detect_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    raise FormatError(
        f"cannot infer format from {path.name!r}; pass input_format json, jsonl or csv")


def _text_field(row: dict, name: str | None) -> str:
    """The row's value of an optional field as text: "" when no field is
    named or the row holds no value (absent or null); any other value,
    0 and false included, keeps its text."""
    value = row.get(name) if name else None
    return "" if value is None else str(value)


def load_corpus(path, sql_field: str = "sql", question_field: str | None = None,
                group_field: str | None = None, name: str | None = None,
                kind: str = "train", input_format: str | None = None,
                skip_bad_rows: bool = False) -> Corpus:
    """Load one corpus file into records.

    A row missing the SQL field (or holding an empty one) raises
    FormatError naming the row; with skip_bad_rows the row is dropped and
    counted in a warning instead. Question and group fields are optional
    and default to "" when absent or null; any other value keeps its text
    (a JSON 0 becomes "0"). All remaining row fields land in meta.
    """
    path = Path(path)
    fmt = input_format or _detect_format(path)
    records: list[CorpusRecord] = []
    skipped = 0
    for i, row in _iter_rows(path, fmt):
        sql = row.get(sql_field)
        if sql is None or not str(sql).strip():
            if skip_bad_rows:
                skipped += 1
                log.warning("%s row %d: missing or empty field %r, skipped", path, i, sql_field)
                continue
            raise FormatError(f"missing or empty field {sql_field!r}", row=i)
        question = _text_field(row, question_field)
        group_id = _text_field(row, group_field)
        claimed = {sql_field, question_field, group_field}
        meta = {k: v for k, v in row.items() if k not in claimed}
        records.append(CorpusRecord(sql=str(sql), question=question,
                                    group_id=group_id, meta=meta))
    if skipped:
        log.warning("%s: skipped %d bad row(s)", path, skipped)
    if not records:
        raise EmptyCorpusError(f"{path} contains no usable records")
    return Corpus(name=name or str(path), kind=kind, records=tuple(records))


def sample_corpus(corpus: Corpus, spec: SampleSpec) -> Corpus:
    """Draw a deterministic sample without replacement.

    fraction mode keeps ceil(fraction * n) records chosen uniformly;
    per_group mode keeps min(per_group, group size) records from each
    distinct group_id. Identical (seed, corpus) inputs reproduce identical
    samples; selected records stay in their original order.
    """
    rng = random.Random(spec.seed)
    n = len(corpus.records)
    if spec.fraction is not None:
        k = math.ceil(spec.fraction * n)
        chosen = sorted(rng.sample(range(n), k))
    else:
        groups: dict[str, list[int]] = {}
        for i, record in enumerate(corpus.records):
            groups.setdefault(record.group_id, []).append(i)
        picked: list[int] = []
        for indices in groups.values():
            picked.extend(rng.sample(indices, min(spec.per_group, len(indices))))
        chosen = sorted(picked)
    return Corpus(name=corpus.name, kind=corpus.kind,
                  records=tuple(corpus.records[i] for i in chosen))


@dataclass
class TemplatizeResult:
    """Templates and pooled distribution of one corpus, plus the parse
    accounting (parsed + failed == record count)."""

    templates: list[StructuralTemplate]
    distribution: NGramDistribution
    parsed: int
    failed: int
    failures: list[tuple[int, str]]


def map_distinct_sql(corpus: Corpus, fn, memo: dict | None = None, view=None) -> list:
    """fn(record.sql) for every record, in record order, calling fn once
    per distinct SQL string (exact text: a ParseError's offset differs
    between strings that differ only in whitespace). Where fn raises a
    ParseError, the error takes the result's place.

    ``memo`` is a run memo: a plain dict shared by the calls of one run.
    Its table under ``view`` maps SQL strings to earlier results of fn, so
    ``view`` must fix everything those results depend on. Strings found
    there are not passed to fn again and new results are added, so fn runs
    once per string across all the corpora of the run. Without a memo the
    table lives for this call only.
    """
    results = {} if memo is None else memo.setdefault(view, {})
    for record in corpus.records:
        sql = record.sql
        if sql not in results:
            try:
                results[sql] = fn(sql)
            except ParseError as exc:
                # Keep the error without its traceback (or the RecursionError
                # it replaced), whose parser frames would stay alive with it.
                exc.__traceback__ = exc.__context__ = None
                results[sql] = exc
    return [results[record.sql] for record in corpus.records]


def templatize_corpus(corpus: Corpus, l_max: int = DEFAULT_L_MAX,
                      memo: dict | None = None) -> TemplatizeResult:
    """Template every record, parsing each distinct SQL string once, and
    build the distribution.

    Records that fail to parse are recorded and excluded; if nothing
    parses, EmptyDistributionError propagates from the distribution
    builder. ``memo`` is a run memo (see map_distinct_sql): a string
    templated for an earlier corpus of the run is not parsed again. The
    result is the same with or without it.
    """
    templates: list[StructuralTemplate] = []
    failures: list[tuple[int, str]] = []
    for i, result in enumerate(map_distinct_sql(corpus, templatize, memo, "templates")):
        if isinstance(result, ParseError):
            failures.append((i, str(result)))
        else:
            templates.append(result)
    distribution = build_distribution(templates, l_max=l_max, source_label=corpus.name)
    return TemplatizeResult(templates=templates, distribution=distribution,
                            parsed=len(templates), failed=len(failures),
                            failures=failures)


def write_templates(templates, path) -> None:
    """One canonical template per line, UTF-8, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for template in templates:
            fh.write(template.canonical_text + "\n")
