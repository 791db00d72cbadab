"""Corpus loading, sampling and the templating pipeline.

Corpora arrive as JSON arrays, JSON-lines or CSV files of rows that hold at
least a SQL string; the caller names the fields explicitly. One row loop
reads and checks a file's rows, and everything that reads a file goes
through it. ``load_corpus`` keeps the SQL column, all that the template,
alignment and pattern views read, and the group column when a group field
is named, which the sampler reads (a ``SqlCorpus``). A command that writes
records out picks their indices with ``sample_corpus`` and fetches those
rows with ``read_rows``, which reads the file again; only it reads the
question field. A corpus is named by its file's path, and every
FormatError the loader raises carries that path and puts it first in its
text.

Every record of a corpus either yields a result or is a parse failure:
``map_distinct_sql`` returns the two apart, and it is the only code that
knows how a failure is kept in the run memo. It also opens the view's
cache in the memo, its strings, its shape table and its lexicon, and
passes the last two to the view's function.
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


class SqlCorpus(FrozenValue):
    """A corpus as columns: the SQL text of each record, in record order,
    and, when it was loaded with a group field, the group text of each
    record (otherwise ``groups`` is None). ``load_corpus`` stores equal
    texts as one string object, so a repetitive corpus holds each distinct
    text once. The rest of a row stays in the file; ``read_rows`` reads it
    back for the records a command writes out."""

    _fields = ("name", "sqls", "groups")

    def __init__(self, name: str, sqls: tuple[str, ...], groups: tuple[str, ...] | None = None):
        if not sqls:
            raise ValueError("corpus must contain at least one record")
        if groups is not None and len(groups) != len(sqls):
            raise ValueError("groups must hold one group per record")
        super().__init__(name, sqls, groups)

    def __len__(self) -> int:
        return len(self.sqls)


# The format each file extension implies; a file with any other needs
# input_format.
_FORMATS = {".json": "json", ".jsonl": "jsonl", ".ndjson": "jsonl", ".csv": "csv"}


def _read_rows(path: Path, input_format: str):
    """Yield (row_index, dict) pairs from a corpus file. Every format is
    read as UTF-8, with or without a byte-order mark.

    Each FormatError raised here names the file. A file that cannot be
    opened or read (OSError) is a FormatError. The JSON decoder raises
    ValueError for text that is not UTF-8 or not JSON and for an integer
    over the interpreter's digit limit, and RecursionError for nesting
    deeper than the stack; each is a FormatError too."""
    try:
        if input_format == "json":
            with open(path, encoding="utf-8-sig") as fh:
                data = json.load(fh)
            if not isinstance(data, list):
                raise FormatError("expected a JSON array of objects", path=path)
            for i, row in enumerate(data):
                if not isinstance(row, dict):
                    raise FormatError("expected a JSON object", row=i, path=path)
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
                        raise FormatError(f"invalid JSON line: {exc}", row=i, path=path) from exc
                    if not isinstance(row, dict):
                        raise FormatError("expected a JSON object", row=i, path=path)
                    yield i, row
                    i += 1
        elif input_format == "csv":
            with open(path, encoding="utf-8-sig", newline="") as fh:
                reader = csv.DictReader(fh)
                names = reader.fieldnames
                if names is None:
                    raise FormatError("CSV file has no header row", path=path)
                if len(set(names)) < len(names):  # DictReader keeps a name's last cell
                    repeated = next(n for i, n in enumerate(names) if n in names[:i])
                    raise FormatError(f"CSV header repeats the name {repeated!r}", path=path)
                for i, row in enumerate(reader):
                    if None in row:  # DictReader files surplus cells under the key None
                        raise FormatError("more fields than the header", row=i, path=path)
                    yield i, row
        else:
            raise FormatError(f"unknown input format {input_format!r}", path=path)
    except (ValueError, RecursionError, csv.Error) as exc:
        raise FormatError(f"unreadable {input_format} file: {exc}", path=path) from exc
    except OSError as exc:
        raise FormatError(f"cannot read: {exc.strerror or exc}", path=path) from exc


def _text_field(row: dict, name: str) -> str:
    """The row's value of a named optional field as text: "" when the row
    holds no value (absent or null); any other value, 0 and false
    included, keeps its text."""
    value = row.get(name)
    return "" if value is None else str(value)


def _kept_rows(path: Path, sql_field: str, fields, input_format: str | None,
               skip_bad_rows: bool):
    """Yield (row index, row, sql) for each row of the file that holds SQL,
    with its SQL as text. ``load_corpus`` and ``read_rows`` read a file
    through it alone, and it makes every check of its rows: load_corpus
    lists what it raises and warns. ``fields`` are the caller's optional
    fields, None for each it does not name; the first named one that no
    kept row holds raises FormatError.

    Each caller drives it from a ``for`` statement in its own frame, so a
    warning at stacklevel 3 is blamed on the caller's caller."""
    fmt = input_format or _FORMATS.get(path.suffix.lower())
    if fmt is None:
        raise FormatError(f"cannot infer the format from the extension {path.suffix!r}; "
                          "pass input_format json, jsonl or csv", path=path)
    kept = skipped = 0
    unheld = [field for field in fields if field]
    for i, row in _read_rows(path, fmt):
        sql = _text_field(row, sql_field)
        if not sql.strip():
            error = FormatError(f"missing or empty field {sql_field!r}", row=i, path=path)
            if not skip_bad_rows:
                raise error
            skipped += 1
            warnings.warn(f"{error}, skipped", stacklevel=3)
            continue
        if unheld:
            unheld = [field for field in unheld if row.get(field) is None]
        kept += 1
        yield i, row, sql
    if skipped:
        warnings.warn(f"{path}: skipped {skipped} bad row(s)", stacklevel=3)
    if not kept:
        raise EmptyCorpusError("contains no usable records", path=path)
    if unheld:
        raise FormatError(f"no row holds field {unheld[0]!r}", path=path)


def load_corpus(path, sql_field: str = "sql", group_field: str | None = None,
                input_format: str | None = None, skip_bad_rows: bool = False) -> SqlCorpus:
    """Load the SQL column of one corpus file, and its group column when
    group_field is named, from the file in the format input_format names
    or, without it, the one its extension implies. Equal texts are stored
    as one string object. The corpus is named str(path).

    A row missing the SQL field (or holding an empty one) raises
    FormatError naming the row; with skip_bad_rows the row is dropped
    instead, with a UserWarning naming it and a last one giving the count
    (blamed on the caller's line). The group field is optional: a row
    where it is absent or null has the group "", and any other value
    keeps its text (a JSON 0 becomes "0"). A group field that no kept row
    holds (absent or null in every row) raises FormatError.
    """
    path = Path(path)
    distinct: dict[str, str] = {}
    sqls: list[str] = []
    groups: list[str] = []
    for _, row, sql in _kept_rows(path, sql_field, (group_field,), input_format,
                                  skip_bad_rows):
        sqls.append(distinct.setdefault(sql, sql))
        if group_field:
            group = _text_field(row, group_field)
            groups.append(distinct.setdefault(group, group))
    return SqlCorpus(str(path), tuple(sqls), tuple(groups) if group_field else None)


def read_rows(corpus: SqlCorpus, indices, sql_field: str = "sql",
              question_field: str | None = None, group_field: str | None = None,
              input_format: str | None = None, skip_bad_rows: bool = False) -> list[dict]:
    """The records at the given indices of a corpus that load_corpus loaded
    with these options, in record order, each as the dict of its ``sql``,
    ``question`` and ``group_id`` texts and ``meta``, a map of all the
    row's other fields. The question field is read here alone, as
    load_corpus reads the group field: "" where a row holds no value, and
    FormatError when no kept row holds one.

    The file is read again, through the same checks; the warnings the
    load gave are not given again. A file that no longer holds the loaded
    records raises FormatError naming it: at the row, when a chosen row's
    SQL is no longer the corpus's text, and otherwise when the number of
    records differs. An index that is not one of the corpus's records
    raises IndexError.
    """
    path = Path(corpus.name)
    claimed = {sql_field, question_field, group_field}
    chosen = set(indices)
    if chosen and not (min(chosen) >= 0 and max(chosen) < len(corpus)):
        raise IndexError("record index out of range")
    rows: list[dict] = []
    k = -1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the load gave them
        for k, (i, row, sql) in enumerate(_kept_rows(path, sql_field,
                                                     (group_field, question_field),
                                                     input_format, skip_bad_rows)):
            if k not in chosen:
                continue
            if sql != corpus.sqls[k]:
                raise FormatError("SQL changed since the file was loaded", row=i, path=path)
            rows.append({"sql": sql,
                         "question": _text_field(row, question_field) if question_field else "",
                         "group_id": _text_field(row, group_field) if group_field else "",
                         "meta": {key: v for key, v in row.items() if key not in claimed}})
    if k + 1 != len(corpus):
        raise FormatError(f"changed since it was loaded: {k + 1} records, not {len(corpus)}",
                          path=path)
    return rows


def sample_corpus(corpus: SqlCorpus, fraction: float | None = None,
                  per_group: int | None = None, seed: int = 0) -> list[int]:
    """Draw a deterministic sample without replacement by a seeded Mersenne
    Twister (random.Random): the indices of the chosen records, in
    ascending order. Exactly one of fraction, in (0, 1], and per_group,
    at least 1, is given; anything else raises ValueError.

    fraction mode keeps ceil(fraction * n) records chosen uniformly, and at
    least one; a product within 1e-9 of an integer counts as that integer,
    so floating-point error (0.28 * 25 is 7.000000000000001) does not add
    a record. per_group mode keeps min(per_group, group size) records from
    each distinct text of the groups column; a corpus without one is one
    group. Identical (seed, corpus) inputs reproduce identical samples.
    """
    if (fraction is None) == (per_group is None):
        raise ValueError("specify exactly one of fraction and per_group")
    if fraction is not None and not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    if per_group is not None and per_group < 1:
        raise ValueError("per_group must be >= 1")
    rng = random.Random(seed)
    n = len(corpus)
    if fraction is not None:
        product = fraction * n
        k = round(product)
        if abs(product - k) > 1e-9:
            k = math.ceil(product)
        return sorted(rng.sample(range(n), max(k, 1)))
    groups: dict[str, list[int]] = {}
    for i, group in enumerate(corpus.groups or ("",) * n):
        groups.setdefault(group, []).append(i)
    picked: list[int] = []
    for indices in groups.values():
        picked.extend(rng.sample(indices, min(per_group, len(indices))))
    return sorted(picked)


class TemplatizeResult(Value):
    """Templates and pooled distribution of one corpus, plus the (record
    index, message) of every record that failed to parse; the two lists
    together hold each record once."""

    _fields = ("templates", "distribution", "failures")

    def __init__(self, templates: list[StructuralTemplate], distribution: NGramDistribution,
                 failures: list[tuple[int, str]]):
        super().__init__(templates, distribution, failures)


def map_distinct_sql(corpus: SqlCorpus, fn, memo: dict | None,
                     view) -> tuple[list, list[tuple[int, str]]]:
    """Apply fn to every SQL text of the corpus's column, calling it once
    per distinct string (exact text: a ParseError's offset differs between
    strings that differ only in whitespace), and return ``(results,
    failures)``: fn's value for every record that parses, in record
    order, and ``(record index, message)`` for every record whose string
    raised ParseError.

    ``memo`` is a run memo: a plain dict shared by the calls of one run,
    or None. ``memo[view]`` is the view's whole cache, the triple
    ``(strings, shapes, lexicon)``, which this function opens; it calls
    ``fn(sql, shapes, lexicon)``. ``strings`` maps SQL strings to earlier
    values of fn, or to the ParseError they raised, so ``view`` must fix
    everything those values depend on, and each view names its own.
    Strings found there are not passed to fn again and new ones are added,
    so fn runs once per string across all the corpora of the run.
    ``shapes`` is the view's shape table: it maps each shape key to its
    token positions and, per template read at them, the view's value (see
    templates.templatize). ``lexicon`` is tokenize's. No table is shared
    between views. Without a memo the cache lives for this call only.
    """
    memo = {} if memo is None else memo
    strings, shapes, lexicon = memo.setdefault(view, ({}, {}, {}))
    results: list = []
    failures: list[tuple[int, str]] = []
    for i, sql in enumerate(corpus.sqls):
        if sql not in strings:
            try:
                strings[sql] = fn(sql, shapes, lexicon)
            except ParseError as exc:
                # Keep the error without its traceback (or the RecursionError
                # it replaced), whose parser frames would stay alive with it.
                exc.__traceback__ = exc.__context__ = None
                strings[sql] = exc
        result = strings[sql]
        if isinstance(result, ParseError):
            failures.append((i, str(result)))
        else:
            results.append(result)
    return results, failures


def templatize_corpus(corpus: SqlCorpus, l_max: int = DEFAULT_L_MAX,
                      memo: dict | None = None) -> TemplatizeResult:
    """Template every SQL text of the column and build the distribution.
    Each distinct SQL string is parsed at most once, and each query shape
    that parses only once. Records of one (shape, template) share one
    StructuralTemplate object, within a corpus and, with a memo, across
    the corpora of the run.

    Records that fail to parse are recorded and excluded; if none parses,
    EmptyDistributionError names the corpus. ``memo`` is a run memo (see
    map_distinct_sql): under ``memo["templates"]`` the view keeps its
    strings, shape table and lexicon, so a string templated for an earlier
    corpus of the run is not parsed again, and each (shape, template) of
    the run is one StructuralTemplate. The result is the same with or
    without it.
    """
    templates, failures = map_distinct_sql(corpus, templatize, memo, "templates")
    if not templates:
        raise EmptyDistributionError(f"{corpus.name}: none of its {len(corpus)} records parsed")
    distribution = build_distribution(templates, l_max=l_max, source_label=corpus.name)
    return TemplatizeResult(templates=templates, distribution=distribution, failures=failures)
