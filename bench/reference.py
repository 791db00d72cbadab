"""Independent reference for the benchmark's output check.

Every expected value is computed from the generator's expected data
(``expected.json``: per record its SQL, expected template and expected
pattern ids) with deliberately plain code: a naive n-gram enumerator, D_KL
as a ``math.fsum`` over the sorted union vocabulary, A_KL with
max-in-batch ``c``, AR, OVLP and pattern totals. Nothing here imports
``sqlalign.ngrams`` or ``sqlalign.metrics``; only the keyword vocabulary,
which is the n-gram filter's specification, is read from
``src/sqlalign/keywords.py``.

Template files, record counts and distribution counts must match exactly.
Report floats must match at the report's 6-decimal precision: within half
a unit in the sixth decimal, plus 1e-9 for summation order.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

L_MAX = 15
ALPHA = 0.5
AR_C = 1.0
FLOAT_TOLERANCE = 0.5e-6 + 1e-9
PATTERN_IDS = ("attr_comma_sum", "bare_sum", "count_star", "count_attr",
               "case_when", "iif", "union_op", "subquery")


def load_keywords(root: Path) -> frozenset[str]:
    """SQL_KEYWORDS from keywords.py, executed on its own so that the
    sqlalign package is not imported."""
    namespace: dict = {}
    source = (root / "src" / "sqlalign" / "keywords.py").read_text(encoding="utf-8")
    exec(compile(source, "keywords.py", "exec"), namespace)
    return frozenset(namespace["SQL_KEYWORDS"])


def ngram_counts(templates: list[str], keywords: frozenset[str],
                 l_max: int = L_MAX) -> dict[str, int]:
    """Pooled counts of every valid window, keyed by its space-joined text.

    A window is valid iff it has a keyword, no comma at either end and as
    many "(" as ")". Each distinct template is enumerated once and counted
    with its multiplicity.
    """
    counts: Counter[str] = Counter()
    for template, times in Counter(templates).items():
        tokens = template.split(" ")
        for n in range(1, min(l_max, len(tokens)) + 1):
            for start in range(len(tokens) - n + 1):
                gram = tokens[start:start + n]
                if gram[0] == "," or gram[-1] == ",":
                    continue
                if gram.count("(") != gram.count(")"):
                    continue
                if any(tok in keywords for tok in gram):
                    counts[" ".join(gram)] += times
    return dict(counts)


def kl_divergence(p: dict[str, int], q: dict[str, int], alpha: float = ALPHA) -> float:
    """Smoothed D(p || q) in nats, summed exactly over the sorted union
    vocabulary; values inside -1e-9..0 read as 0."""
    vocab = sorted(p.keys() | q.keys())
    denom_p = sum(p.values()) + alpha * len(vocab)
    denom_q = sum(q.values()) + alpha * len(vocab)
    terms = []
    for gram in vocab:
        pp = (p.get(gram, 0) + alpha) / denom_p
        qq = (q.get(gram, 0) + alpha) / denom_q
        terms.append(pp * math.log(pp / qq))
    total = math.fsum(terms)
    return 0.0 if -1e-9 < total < 0.0 else total


def batch_scores(divergences: list[float], alpha: float = ALPHA) -> list[dict]:
    """A_KL = exp(-d / c) with c the largest divergence of the batch (1.0
    when every divergence is 0)."""
    d_max = max(divergences)
    c = d_max if d_max > 0 else 1.0
    return [{"d_kl": d, "a_kl": math.exp(-d / c), "c": c, "alpha": alpha}
            for d in divergences]


def ovlp(target_templates: list[str], source_templates: list[str]) -> float:
    target = set(target_templates)
    return len(target & set(source_templates)) / len(target)


class CorpusFacts:
    """Expected facts of one corpus file."""

    def __init__(self, path: str, records: list, keywords: frozenset[str]):
        self.path = path
        self.sqls = [r[0] for r in records]
        self.templates = [r[1] for r in records if r[1] is not None]
        self.failed_indices = [i for i, r in enumerate(records) if r[1] is None]
        self.pattern_sets = [r[2] for r in records]
        self.counts = ngram_counts(self.templates, keywords)

    def __len__(self) -> int:
        return len(self.sqls)

    @property
    def failed(self) -> int:
        return len(self.failed_indices)

    def pattern_totals(self) -> dict[str, int]:
        totals = dict.fromkeys(PATTERN_IDS, 0)
        for ids in self.pattern_sets:
            for pattern_id in ids:
                totals[pattern_id] += 1
        return totals


def expected_templates(corpus: CorpusFacts) -> dict:
    """Expected outputs of ``templates IN -o T --report R --distribution D``:
    the templates text, the report facts and the distribution file."""
    return {
        "templates": "".join(t + "\n" for t in corpus.templates),
        "report": {"corpus": corpus.path, "n_records": len(corpus),
                   "parsed": len(corpus.templates), "failed": corpus.failed,
                   "failure_indices": corpus.failed_indices},
        "distribution": {"l_max": L_MAX, "source_label": corpus.path,
                         "total": sum(corpus.counts.values()), "counts": corpus.counts},
    }


def expected_align(target: CorpusFacts, sources: list[CorpusFacts]) -> dict:
    scores = batch_scores([kl_divergence(target.counts, s.counts) for s in sources])
    rows = []
    for source, score in zip(sources, scores):
        rows.append({**score, "target": target.path, "source": source.path,
                     "ovlp": ovlp(target.templates, source.templates), "l_max": L_MAX,
                     "n_target_queries": len(target), "n_source_queries": len(source),
                     "parse_failures": {"target": target.failed, "source": source.failed}})
    return {"rows": rows}


def expected_ar(target: CorpusFacts, train: CorpusFacts, pred: CorpusFacts) -> dict:
    d_num = kl_divergence(target.counts, train.counts)
    d_den = kl_divergence(target.counts, pred.counts)
    ar = math.exp(-(d_num - d_den) / AR_C)
    return {
        "target": target.path, "train": train.path, "pred": pred.path,
        "ar": ar, "sft_recommended": ar > 1.0,
        "numerator": {"d_kl": d_num, "a_kl": math.exp(-d_num / AR_C), "c": AR_C,
                      "alpha": ALPHA},
        "denominator": {"d_kl": d_den, "a_kl": math.exp(-d_den / AR_C), "c": AR_C,
                        "alpha": ALPHA},
        "parse_failures": {"target": target.failed, "train": train.failed,
                           "pred": pred.failed},
    }


def expected_patterns(before: CorpusFacts, after: CorpusFacts) -> dict:
    b_totals, a_totals = before.pattern_totals(), after.pattern_totals()
    table = {}
    for pattern_id in PATTERN_IDS:
        b, a = b_totals[pattern_id], a_totals[pattern_id]
        delta = a - b
        table[pattern_id] = {"before": b, "after": a, "delta": delta,
                             "direction": "flat" if delta == 0 else ("up" if delta > 0 else "down")}
    return {"before_corpus": before.path, "after_corpus": after.path,
            "parse_failures": {"before": before.failed, "after": after.failed},
            "patterns": table}


def compare(expected, actual, where: str = "$") -> list[str]:
    """Mismatches of ``actual`` against ``expected``. Keys absent from
    ``expected`` (the echoed run configuration, notes) are not checked;
    floats compare at 6-decimal precision, everything else exactly."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{where}.{key}: missing")
            else:
                out += compare(value, actual[key], f"{where}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{where}[{i}]")
        return out
    if isinstance(expected, float):
        if (isinstance(actual, bool) or not isinstance(actual, (int, float))
                or abs(actual - expected) > FLOAT_TOLERANCE):
            return [f"{where}: {actual!r} != {expected:.9f}"]
        return []
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def workload_properties(files: list[CorpusFacts]) -> dict[str, float]:
    """Input properties that caching and dedup work depends on, over every
    record of every file of the workload, each file once."""
    sqls = [sql for f in files for sql in f.sqls]
    templates = [t for f in files for t in f.templates]
    vocab: set[str] = set()
    for f in files:
        vocab.update(f.counts)
    return {
        "corpus.distinct_sql_share": len(set(sqls)) / len(sqls),
        "templates.distinct_share": len(set(templates)) / len(templates),
        "parsing.fail_share": 1 - len(templates) / len(sqls),
        "templates.mean_tokens": sum(t.count(" ") + 1 for t in templates) / len(templates),
        "ngrams.vocab": float(len(vocab)),
    }


def load_expected(work: Path, root: Path) -> dict[str, CorpusFacts]:
    """role -> CorpusFacts, with paths as the CLI is given them (relative
    to the checkout root)."""
    data = json.loads((work / "expected.json").read_text(encoding="utf-8"))
    keywords = load_keywords(root)
    rel = work.relative_to(root)
    return {role: CorpusFacts(str(rel / name), data["records"][role], keywords)
            for role, name in data["files"].items()}
