"""Corpus loading, sampling and the templating pipeline.

Corpora arrive as JSON arrays, JSON-lines or CSV files of rows that hold at
least a SQL string; the caller names the fields explicitly. Records keep an
open metadata map with whatever other fields the row carried.

Every record of a corpus either yields a result or is a parse failure:
``map_distinct_sql`` returns the two apart, and it is the only code that
knows how a failure is kept in the run memo.
"""

from __future__ import annotations

import csv
import json
import math
import random
import warnings
from pathlib import Path

from ._value import FrozenValue, Value
from .errors import EmptyCorpusError, EmptyDistributionError, FormatError
from .ngrams import DEFAULT_L_MAX, NGramDistribution, build_distribution
from .parsing import ParseError
from .templates import StructuralTemplate, templatize


class CorpusRecord(FrozenValue):
    """One (question, SQL, group) row. The question may be empty, e.g. in
    model prediction dumps; the SQL may not."""

    _fields = ("sql", "question", "group_id", "meta")
    __slots__ = _fields
    __hash__ = None  # meta is a dict

    def __init__(self, sql: str, question: str = "", group_id: str = "",
                 meta: dict | None = None):
        if not sql.strip():
            raise ValueError("record sql must be non-empty")
        object.__setattr__(self, "sql", sql)
        object.__setattr__(self, "question", question)
        object.__setattr__(self, "group_id", group_id)
        object.__setattr__(self, "meta", {} if meta is None else meta)


class Corpus(FrozenValue):
    _fields = ("name", "records")
    __hash__ = None  # its records are unhashable

    def __init__(self, name: str, records: tuple[CorpusRecord, ...]):
        if not records:
            raise ValueError("corpus must contain at least one record")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "records", records)

    def __len__(self) -> int:
        return len(self.records)


class SampleSpec(FrozenValue):
    """Either a uniform fraction of the corpus or up to per_group records
    from every group, drawn without replacement by a seeded Mersenne
    Twister (random.Random). Original record order is preserved."""

    _fields = ("fraction", "per_group", "seed")

    def __init__(self, fraction: float | None = None, per_group: int | None = None,
                 seed: int = 0):
        if (fraction is None) == (per_group is None):
            raise ValueError("specify exactly one of fraction and per_group")
        if fraction is not None and not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if per_group is not None and per_group < 1:
            raise ValueError("per_group must be >= 1")
        object.__setattr__(self, "fraction", fraction)
        object.__setattr__(self, "per_group", per_group)
        object.__setattr__(self, "seed", seed)


def _iter_rows(path: Path, input_format: str):
    """Yield (row_index, dict) pairs from a corpus file. Every format is
    read as UTF-8, with or without a byte-order mark.

    The JSON decoder raises ValueError for text that is not UTF-8 or not
    JSON and for an integer over the interpreter's digit limit, and
    RecursionError for nesting deeper than the stack; each is a
    FormatError naming the file, as is every FormatError of a row."""
    try:
        yield from _read_rows(path, input_format)
    except FormatError as exc:
        raise _naming_file(exc, path)
    except (ValueError, RecursionError, csv.Error) as exc:
        raise FormatError(f"unreadable {input_format} file {path}: {exc}") from exc


def _naming_file(error: FormatError, path: Path) -> FormatError:
    """error, its text put after the file as the skipped-row warnings
    put it: ``<path> row N: …``, or ``<path>: …`` when it names no row."""
    error.args = (f"{path}{': ' if error.row is None else ' '}{error}",)
    return error


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
                except (ValueError, RecursionError) as exc:
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


def _text_field(row: dict, name: str) -> str:
    """The row's value of a named optional field as text: "" when the row
    holds no value (absent or null); any other value, 0 and false
    included, keeps its text."""
    value = row.get(name)
    return "" if value is None else str(value)


def load_corpus(path, sql_field: str = "sql", question_field: str | None = None,
                group_field: str | None = None, name: str | None = None,
                input_format: str | None = None, skip_bad_rows: bool = False) -> Corpus:
    """Load one corpus file into records.

    A row missing the SQL field (or holding an empty one) raises
    FormatError naming the row; with skip_bad_rows the row is dropped
    instead, with a UserWarning naming it and a last one giving the count
    (blamed on the caller's line). Question and group fields are optional
    and default to "" when absent or null; any other value keeps its text
    (a JSON 0 becomes "0"). A named one that no kept row holds (absent or
    null in every row) raises FormatError. All remaining row fields land in meta.
    """
    path = Path(path)
    fmt = input_format or _detect_format(path)
    records: list[CorpusRecord] = []
    skipped = 0
    claimed = {sql_field, question_field, group_field}
    unheld = [field for field in (question_field, group_field) if field]
    for i, row in _iter_rows(path, fmt):
        sql = _text_field(row, sql_field)
        if not sql.strip():
            if skip_bad_rows:
                skipped += 1
                warnings.warn(f"{path} row {i}: missing or empty field {sql_field!r}, skipped",
                              stacklevel=2)
                continue
            raise _naming_file(FormatError(f"missing or empty field {sql_field!r}", row=i), path)
        if unheld:
            unheld = [field for field in unheld if row.get(field) is None]
        records.append(CorpusRecord(
            sql, _text_field(row, question_field) if question_field else "",
            _text_field(row, group_field) if group_field else "",
            {k: v for k, v in row.items() if k not in claimed}))
    if skipped:
        warnings.warn(f"{path}: skipped {skipped} bad row(s)", stacklevel=2)
    if not records:
        raise EmptyCorpusError(f"{path} contains no usable records")
    if unheld:
        raise _naming_file(FormatError(f"no row holds field {unheld[0]!r}"), path)
    return Corpus(name=name or str(path), records=tuple(records))


def sample_corpus(corpus: Corpus, spec: SampleSpec) -> Corpus:
    """Draw a deterministic sample without replacement.

    fraction mode keeps ceil(fraction * n) records chosen uniformly, and at
    least one; a product within 1e-9 of an integer counts as that integer,
    so floating-point error (0.28 * 25 is 7.000000000000001) does not add
    a record. per_group mode keeps min(per_group, group size) records from
    each distinct group_id. Identical (seed, corpus) inputs reproduce
    identical samples; selected records stay in their original order.
    """
    rng = random.Random(spec.seed)
    n = len(corpus.records)
    if spec.fraction is not None:
        product = spec.fraction * n
        k = round(product)
        if abs(product - k) > 1e-9:
            k = math.ceil(product)
        chosen = sorted(rng.sample(range(n), max(k, 1)))
    else:
        groups: dict[str, list[int]] = {}
        for i, record in enumerate(corpus.records):
            groups.setdefault(record.group_id, []).append(i)
        picked: list[int] = []
        for indices in groups.values():
            picked.extend(rng.sample(indices, min(spec.per_group, len(indices))))
        chosen = sorted(picked)
    return Corpus(name=corpus.name, records=tuple(corpus.records[i] for i in chosen))


class TemplatizeResult(Value):
    """Templates and pooled distribution of one corpus, plus the (record
    index, message) of every record that failed to parse; the two lists
    together hold each record once."""

    _fields = ("templates", "distribution", "failures")

    def __init__(self, templates: list[StructuralTemplate], distribution: NGramDistribution,
                 failures: list[tuple[int, str]]):
        self.templates = templates
        self.distribution = distribution
        self.failures = failures


def map_distinct_sql(corpus: Corpus, fn, memo: dict | None = None,
                     view=None) -> tuple[list, list[tuple[int, str]]]:
    """Apply fn to every record's SQL, calling it once per distinct string
    (exact text: a ParseError's offset differs between strings that differ
    only in whitespace), and return ``(results, failures)``: fn's value for
    every record that parses, in record order, and ``(record index,
    message)`` for every record whose string raised ParseError.

    ``memo`` is a run memo: a plain dict shared by the calls of one run.
    Its table under ``view`` maps SQL strings to earlier values of fn, or
    to the ParseError they raised, so ``view`` must fix everything those
    values depend on. Strings found there are not passed to fn again and
    new ones are added, so fn runs once per string across all the corpora
    of the run. Without a memo the table lives for this call only.
    """
    table = {} if memo is None else memo.setdefault(view, {})
    results: list = []
    failures: list[tuple[int, str]] = []
    for i, record in enumerate(corpus.records):
        sql = record.sql
        if sql not in table:
            try:
                table[sql] = fn(sql)
            except ParseError as exc:
                # Keep the error without its traceback (or the RecursionError
                # it replaced), whose parser frames would stay alive with it.
                exc.__traceback__ = exc.__context__ = None
                table[sql] = exc
        result = table[sql]
        if isinstance(result, ParseError):
            failures.append((i, str(result)))
        else:
            results.append(result)
    return results, failures


def templatize_corpus(corpus: Corpus, l_max: int = DEFAULT_L_MAX,
                      memo: dict | None = None) -> TemplatizeResult:
    """Template every record and build the distribution. Each distinct
    SQL string is parsed at most once, and each query shape that parses
    only once.

    Records that fail to parse are recorded and excluded; if none parses,
    EmptyDistributionError names the corpus. ``memo`` is a run memo (see
    map_distinct_sql): a string templated for an earlier corpus of the run
    is not parsed again, and the shape table under ``"shapes"`` (see
    templates.templatize) serves every corpus of the run. Without a memo
    both serve this call only. The result is the same with or without it.
    """
    shapes = {} if memo is None else memo.setdefault("shapes", {})
    templates, failures = map_distinct_sql(
        corpus, lambda sql: templatize(sql, shapes), memo, "templates")
    if not templates:
        raise EmptyDistributionError(f"{corpus.name}: none of its {len(corpus)} records parsed")
    distribution = build_distribution(templates, l_max=l_max, source_label=corpus.name)
    return TemplatizeResult(templates=templates, distribution=distribution, failures=failures)
