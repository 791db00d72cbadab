"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime (pytest reports FAILED lines itself).

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import math
import os
import random
import time
from pathlib import Path

import pytest

import corpusgen
from sqlalign import (
    SqlCorpus,
    StructuralTemplate,
    build_distribution,
    kl_alignment,
    kl_divergence,
    ovlp_ratio,
    sample_corpus,
    templatize,
    templatize_corpus,
)
from sqlalign.cli import main
from sqlalign.metrics import alignment_ratio
from sqlalign.ngrams import NGramDistribution
from test_ngrams import naive_valid_counts
from test_patterns import FIXTURE, MANUAL_TALLY, fixture_corpus
from sqlalign.patterns import count_patterns, DEFAULT_PATTERNS
from sqlalign.parsing import parse_sql


def _report(name: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{name} took {elapsed:.2f}s, limit {limit:.0f}s"
    print(f"PASS {name} ({elapsed:.2f}s < {limit:.0f}s)")


def _dist(counts):
    return NGramDistribution(counts=counts, l_max=15)


def _random_counts(rng, max_vocab=50, max_count=100):
    vocab = rng.sample(range(max_vocab), rng.randint(1, max_vocab))
    return {f"g{i}": rng.randint(1, max_count) for i in vocab}


def test_criterion_01_golden_template():
    started = time.monotonic()
    query = ("SELECT meal/enrollment FROM frpm WHERE county='Alameda' "
             "ORDER BY (CAST(meal AS REAL) / enrollment) DESC LIMIT 1")
    expected = "SELECT / FROM WHERE = ORDER BY ( CAST ( ) / ) DESC LIMIT"
    assert templatize(query).canonical_text == expected
    _report("criterion 1: golden template", started, 1.0)


def test_criterion_02_schema_renaming_invariance():
    started = time.monotonic()
    rng = random.Random(20240)
    skeletons = corpusgen.SKELETONS + corpusgen.FAR_SKELETONS
    changed = 0
    for i in range(200):
        original, renamed = corpusgen.make_query_pair(
            rng, skeleton=skeletons[i % len(skeletons)])
        if templatize(original) != templatize(renamed):
            changed += 1
    assert changed == 0
    _report("criterion 2: renaming invariance over 200 queries", started, 5.0)


def test_criterion_03_gibbs_property_and_hand_value():
    started = time.monotonic()
    rng = random.Random(99)
    for _ in range(1000):
        p = _dist(_random_counts(rng))
        q = _dist(_random_counts(rng))
        assert kl_divergence(p, q, alpha=0.5) >= -1e-12
        assert kl_divergence(p, p, alpha=0.5) <= 1e-12
    hand = _dist({"a": 1, "b": 1})
    other = _dist({"a": 1, "b": 3})
    assert abs(kl_divergence(hand, other, alpha=1e-6) - 0.14384) < 1e-3
    _report("criterion 3: Gibbs inequality + hand-computed divergence", started, 10.0)


def test_criterion_04_alignment_transform_contract():
    started = time.monotonic()
    for c in (0.5, 1.0, 3.7):
        assert kl_alignment(0.0, c) == 1.0
        assert abs(kl_alignment(c, c) - 1 / math.e) < 1e-12
    grid = [kl_alignment(k * 0.07, 1.3) for k in range(100)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    rising_c = [kl_alignment(0.9, 0.05 + k * 0.11) for k in range(100)]
    assert all(a < b for a, b in zip(rising_c, rising_c[1:]))
    _report("criterion 4: alignment transform identities + monotonicity", started, 1.0)


def test_criterion_05_alignment_ratio_iff_property():
    started = time.monotonic()
    rng = random.Random(5150)
    violations = 0
    for _ in range(1000):
        target = _dist(_random_counts(rng))
        train = _dist(_random_counts(rng))
        pred = _dist(_random_counts(rng))
        c = rng.uniform(0.05, 10.0)
        ratio = alignment_ratio(target, train, pred, alpha=0.5, c=c)
        if (ratio.ar > 1.0) != (ratio.numerator.d_kl < ratio.denominator.d_kl):
            violations += 1
    assert violations == 0
    _report("criterion 5: AR > 1 iff D(target||train) < D(target||pred)", started, 30.0)


def test_criterion_06_ovlp_properties():
    started = time.monotonic()
    assert ovlp_ratio({"A", "B", "C"}, {"A", "B", "C"}) == 1.0
    assert ovlp_ratio({"A", "B"}, {"X"}) == 0.0
    assert ovlp_ratio({"A", "B", "C"}, {"A", "C", "D"}) == 2 / 3
    rng = random.Random(17)
    target = {f"T{i}" for i in range(12)}
    source, previous = set(), 0.0
    for item in [f"T{i}" for i in range(25)] + [f"S{i}" for i in range(5)]:
        source.add(item)
        current = ovlp_ratio(target, source)
        assert current >= previous
        previous = current
    _report("criterion 6: OVLP identity, disjointness, exact 2/3, monotony", started, 1.0)


def test_criterion_07_ngram_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(4242)
    pool = ["SELECT", "FROM", "WHERE", "GROUP", "BY", "JOIN", "ON", "COUNT",
            "SUM", "(", ")", ",", "=", "*", "/", "<", "||", "zz", "qq"]
    templates = [[rng.choice(pool) for _ in range(rng.randint(1, 20))]
                 for _ in range(100)]
    naive = naive_valid_counts(templates, l_max=15)
    dist = build_distribution([StructuralTemplate(tuple(t)) for t in templates], l_max=15)
    assert dist.counts == naive
    assert dist.total == sum(naive.values())
    _report("criterion 7: pooled counts equal the naive enumerator", started, 10.0)


def test_criterion_08_small_sample_stability():
    """1% samples of a 10,000-query mixture corpus reproduce the full
    corpus's alignment score within 0.05 across 10 seeds.

    Convention (held fixed throughout): alpha = 0.5; c set once by the
    tool's max-in-batch rule over the full corpus against both candidate
    references, one mildly tilted and one structurally far, mirroring the
    cross-corpus batches the score is designed for.
    """
    started = time.monotonic()
    n_skeletons = len(corpusgen.SKELETONS)
    assert n_skeletons >= 20
    weights_corpus = [1.0 / (k + 1) for k in range(n_skeletons)]
    weights_near = [w * (1.5 if k % 3 == 0 else (0.7 if k % 3 == 1 else 1.0))
                    for k, w in enumerate(weights_corpus)]

    full_sql = corpusgen.make_mixture_corpus(10_000, seed=123, weights=weights_corpus)
    corpus = SqlCorpus("synthetic", tuple(full_sql))
    full = templatize_corpus(corpus, l_max=15)
    assert len({t.canonical_text for t in full.templates}) >= 20

    near_ref = build_distribution(
        [templatize(q) for q in corpusgen.make_mixture_corpus(
            5_000, seed=999, weights=weights_near)], l_max=15)
    far_ref = build_distribution(
        [templatize(q) for q in corpusgen.make_mixture_corpus(
            2_000, seed=777, skeletons=corpusgen.FAR_SKELETONS)], l_max=15)

    alpha = 0.5
    d_near = kl_divergence(full.distribution, near_ref, alpha)
    d_far = kl_divergence(full.distribution, far_ref, alpha)
    c = max(d_near, d_far)  # max-in-batch, frozen for all comparisons below
    a_full = kl_alignment(d_near, c)

    worst = 0.0
    for seed in range(10):
        chosen = sample_corpus(corpus, fraction=0.01, seed=seed)
        assert len(chosen) == 100
        sample_result = templatize_corpus(
            SqlCorpus(corpus.name, tuple(corpus.sqls[i] for i in chosen)), l_max=15)
        d_sample = kl_divergence(sample_result.distribution, near_ref, alpha)
        worst = max(worst, abs(kl_alignment(d_sample, c) - a_full))
    assert worst <= 0.05, f"max |delta a_kl| = {worst:.4f}"
    _report(f"criterion 8: small-sample stability (max delta {worst:.4f})",
            started, 60.0)


def test_criterion_09_pattern_counts_match_manual_tally():
    started = time.monotonic()
    counts = count_patterns(fixture_corpus())
    assert len(FIXTURE) == 20
    assert counts.counts == MANUAL_TALLY

    tree = parse_sql("SELECT region, SUM(amount) FROM investments GROUP BY region")
    matched = {s.id for s in DEFAULT_PATTERNS if s.match(tree)}
    assert matched == {"attr_comma_sum"}
    tree = parse_sql("SELECT COUNT(*) FROM transactions")
    matched = {s.id for s in DEFAULT_PATTERNS if s.match(tree)}
    assert matched == {"count_star"}
    tree = parse_sql("SELECT name FROM (SELECT name FROM people) p")
    matched = {s.id for s in DEFAULT_PATTERNS if s.match(tree)}
    assert matched == {"subquery"}
    _report("criterion 9: pattern fixture matches the manual tally", started, 1.0)


def test_criterion_10_align_reports_are_deterministic(tmp_path):
    started = time.monotonic()
    rng = random.Random(31337)
    target_path = tmp_path / "target.jsonl"
    source_path = tmp_path / "source.jsonl"
    with open(target_path, "w") as fh:
        for _ in range(150):
            fh.write(json.dumps({"sql": corpusgen.make_query(rng)}) + "\n")
    with open(source_path, "w") as fh:
        for _ in range(150):
            fh.write(json.dumps({"sql": corpusgen.make_query(rng)}) + "\n")
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["align", "--target", str(target_path), "--source", str(source_path),
            "--c", "1.0"]
    assert main(argv + ["-o", str(out_a)]) == 0
    assert main(argv + ["-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    _report("criterion 10: byte-identical align reports", started, 5.0)


@pytest.mark.skipif("SQLALIGN_DIAG_DIR" not in os.environ,
                    reason="optional diagnostic; set SQLALIGN_DIAG_DIR to a "
                           "directory of benchmark corpora to enable")
def test_criterion_11_optional_benchmark_ordering_diagnostic():
    """Non-blocking diagnostic on locally provided benchmark files.

    Expects {spider,bird,gretel}_train.jsonl and {spider,bird,gretel}_eval.jsonl
    under SQLALIGN_DIAG_DIR, each row holding the SQL under a "sql" key.
    Checks the ordering property only: every training set should align best
    (lowest divergence, hence row-max alignment) with its own eval set.
    """
    started = time.monotonic()
    root = Path(os.environ["SQLALIGN_DIAG_DIR"])
    names = ("spider", "bird", "gretel")
    dists = {}
    for name in names:
        for split in ("train", "eval"):
            path = root / f"{name}_{split}.jsonl"
            rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
            corpus = SqlCorpus(f"{name}_{split}", tuple(r["sql"] for r in rows))
            dists[(name, split)] = templatize_corpus(corpus, l_max=15).distribution
    for train_name in names:
        divergences = {eval_name: kl_divergence(dists[(eval_name, "eval")],
                                                dists[(train_name, "train")], alpha=0.5)
                       for eval_name in names}
        best = min(divergences, key=divergences.get)
        assert best == train_name, divergences
    _report("criterion 11: benchmark self-alignment ordering", started, 600.0)
