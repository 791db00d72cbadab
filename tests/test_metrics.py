import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlalign
from sqlalign.errors import (
    EmptyDistributionError,
    EmptyTargetSetError,
    SpecMismatchError,
    SqlAlignError,
)
from sqlalign.metrics import (
    AlignmentScore,
    AlignmentRatio,
    align,
    alignment_ratio,
    batch_align,
    kl_alignment,
    kl_divergence,
    ovlp_ratio,
)
from sqlalign.ngrams import NGramDistribution


def dist(counts, label=""):
    return NGramDistribution(counts=counts, l_max=15, source_label=label)


def random_dist(rng, max_vocab=50, max_count=100):
    vocab_size = rng.randint(1, max_vocab)
    chosen = rng.sample([f"g{i}" for i in range(max_vocab)], vocab_size)
    return dist({g: rng.randint(1, max_count) for g in chosen})


# -- kl_divergence ---------------------------------------------------------

def test_kl_identity_is_zero():
    p = dist({"a": 3, "b": 1})
    assert kl_divergence(p, p, alpha=0.5) == pytest.approx(0.0, abs=1e-12)


def test_kl_clamps_a_hair_negative_zero_to_plus_zero():
    # Smoothed over the vocabulary {SELECT, FROM, WHERE}, p is (3.1, .1, .1)
    # / 3.3 and q is (34.1, 1.1, 1.1) / 36.3: q's vector is p's times 11, so
    # both divergences are exactly 0, but in floating point D(p || q) sums
    # to -1.04e-16 and D(q || p) to +2.1e-16.
    p = dist({"SELECT": 3})
    q = dist({"FROM": 1, "WHERE": 1, "SELECT": 34})
    smoothed = [((count_p + 0.1) / (3 + 0.1 * 3), (count_q + 0.1) / (36 + 0.1 * 3))
                for count_p, count_q in ((3, 34), (0, 1), (0, 1))]
    unclamped = math.fsum(pp * math.log(pp / qq) for pp, qq in smoothed)
    assert -1e-9 < unclamped < 0.0
    d = kl_divergence(p, q, alpha=0.1)
    assert d == 0.0 and math.copysign(1.0, d) == 1.0
    assert 0.0 <= kl_divergence(q, p, alpha=0.1) < 1e-12


def test_kl_hand_computed_value():
    # alpha -> 0 limit of the two-cell pair: 0.5*ln(0.5/0.25) + 0.5*ln(0.5/0.75)
    p = dist({"a": 1, "b": 1})
    q = dist({"a": 1, "b": 3})
    assert kl_divergence(p, q, alpha=1e-6) == pytest.approx(0.14384, abs=1e-3)


def test_kl_support_mismatch_is_finite_with_smoothing():
    p = dist({"a": 1, "b": 1})
    q = dist({"a": 2})
    value = kl_divergence(p, q, alpha=0.5)
    assert math.isfinite(value)
    assert value > 0


def test_kl_requires_positive_alpha():
    p = dist({"a": 1})
    with pytest.raises(ValueError):
        kl_divergence(p, p, alpha=0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_kl_rejects_non_finite_alpha(alpha):
    p = dist({"a": 1})
    with pytest.raises(ValueError):
        kl_divergence(p, p, alpha=alpha)


def test_kl_rejects_empty_distributions():
    p = dist({"a": 1})
    empty = NGramDistribution(counts={}, l_max=15)
    with pytest.raises(EmptyDistributionError):
        kl_divergence(p, empty, alpha=0.5)
    with pytest.raises(EmptyDistributionError):
        kl_divergence(empty, p, alpha=0.5)


def test_a_distribution_total_is_the_sum_of_its_counts():
    rng = random.Random(31)
    for _ in range(50):
        p = random_dist(rng)
        assert p.total == sum(p.counts.values())
    assert NGramDistribution(counts={}, l_max=15).total == 0
    with pytest.raises(TypeError):
        NGramDistribution(counts={"SELECT": 1}, total=1, l_max=15)  # total is no argument
    # Counts that disagree with a given total could give a negative D_KL;
    # a total worked out from the counts cannot.
    d = kl_divergence(dist({"SELECT": 3, "FROM": 1}), dist({"SELECT": 1, "FROM": 3}))
    assert d > 0.0


@pytest.mark.parametrize("counts, gram", [
    ({"SELECT": 3, "FROM": -1}, "FROM"),  # kl_divergence blamed alpha for it
    ({"SELECT": 2.5}, "SELECT"),
    ({"SELECT": 1, "FROM": 0}, "FROM"),  # used to join the vocabulary
    ({"SELECT": True}, "SELECT"),
    ({"SELECT": "3"}, "SELECT"),
], ids=["negative", "float", "zero", "bool", "text"])
def test_a_count_that_is_not_a_positive_int_names_its_ngram(counts, gram):
    message = f"n-gram {gram!r} has count {counts[gram]!r}, not a positive int"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dist(counts)


def test_kl_rejects_different_l_max():
    p = dist({"a": 1, "b": 2})
    q = NGramDistribution(counts=p.counts, l_max=3)
    with pytest.raises(SpecMismatchError):
        kl_divergence(p, q)


_KL_SCRIPT = """
import random
from sqlalign.metrics import kl_divergence
from sqlalign.ngrams import NGramDistribution
rng = random.Random(3)
def dist(lo, hi):
    counts = {f"SELECT g{i}": rng.randint(1, 1000) for i in range(lo, hi) if rng.random() < 0.7}
    return NGramDistribution(counts=counts, l_max=15)
# q holds n-grams that p lacks, and p n-grams that q lacks
p, q = dist(0, 3000), dist(1000, 4000)
print(repr(kl_divergence(p, q)), repr(kl_divergence(q, p)))
"""


def test_kl_is_identical_across_hash_seeds():
    src = str(Path(sqlalign.__file__).parents[1])
    outputs = {subprocess.run([sys.executable, "-c", _KL_SCRIPT], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)).stdout
               for seed in ("0", "1")}
    assert len(outputs) == 1, outputs


def reference_kl(p, q, alpha):
    """One term per n-gram of the union vocabulary, summed with fsum and
    clamped like kl_divergence."""
    vocab = p.counts.keys() | q.counts.keys()
    denom_p = p.total + alpha * len(vocab)
    denom_q = q.total + alpha * len(vocab)
    terms = []
    for gram in vocab:
        pp = (p.counts.get(gram, 0) + alpha) / denom_p
        qq = (q.counts.get(gram, 0) + alpha) / denom_q
        terms.append(pp * math.log(pp / qq))
    total = math.fsum(terms)
    return 0.0 if -1e-9 < total < 0.0 else total


# Few keys and mostly small counts, so count pairs repeat; the keys drawn
# for p and q overlap in part, so n-grams occur in p only and in q only.
_COUNTS = st.dictionaries(st.sampled_from([f"SELECT g{i}" for i in range(40)]),
                          st.integers(1, 4) | st.integers(1, 10**6),
                          min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(_COUNTS, _COUNTS, st.booleans(),
       st.sampled_from([1e-9, 1e-6, 0.5, 3.0]) | st.floats(1e-9, 10.0))
def test_kl_equals_the_per_ngram_fsum(p_counts, q_counts, disjoint, alpha):
    if disjoint:
        q_counts = {f"FROM {gram}": n for gram, n in q_counts.items()}
    p, q = dist(p_counts), dist(q_counts)
    assert kl_divergence(p, q, alpha) == reference_kl(p, q, alpha)
    assert kl_divergence(q, p, alpha) == reference_kl(q, p, alpha)


def test_kl_is_asymmetric():
    p = dist({"a": 1, "b": 1})
    q = dist({"a": 1, "b": 3})
    assert kl_divergence(p, q, alpha=1e-6) != pytest.approx(
        kl_divergence(q, p, alpha=1e-6), abs=1e-6)


def test_kl_gibbs_inequality_random_pairs():
    rng = random.Random(2024)
    for _ in range(300):
        p = random_dist(rng)
        q = random_dist(rng)
        assert kl_divergence(p, q, alpha=0.5) >= -1e-12
        assert kl_divergence(p, p, alpha=0.5) <= 1e-12


def test_kl_zero_iff_identical_normalized_counts():
    rng = random.Random(7)
    for _ in range(100):
        p = random_dist(rng, max_vocab=20, max_count=30)
        q = random_dist(rng, max_vocab=20, max_count=30)
        d = kl_divergence(p, q, alpha=1e-9)
        p_norm = {g: c / p.total for g, c in p.counts.items()}
        q_norm = {g: c / q.total for g, c in q.counts.items()}
        if p_norm == q_norm:
            assert d <= 1e-9
        else:
            assert d > 1e-12


# -- kl_alignment ----------------------------------------------------------

def test_alignment_transform_identities():
    assert kl_alignment(0.0, 2.0) == 1.0
    assert kl_alignment(3.0, 3.0) == pytest.approx(1 / math.e, abs=1e-12)
    assert kl_alignment(2.0 * math.log(2), 2.0) == pytest.approx(0.5, abs=1e-12)


def test_alignment_transform_monotonic():
    c = 1.7
    values = [kl_alignment(d / 10, c) for d in range(100)]
    assert all(a > b for a, b in zip(values, values[1:]))
    d = 0.9
    values = [kl_alignment(d, 0.1 + k / 10) for k in range(100)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_alignment_requires_positive_c():
    with pytest.raises(ValueError):
        kl_alignment(1.0, 0.0)


@pytest.mark.parametrize("c", [-1.0, math.nan, math.inf])
def test_alignment_rejects_non_positive_or_non_finite_c(c):
    with pytest.raises(ValueError):
        kl_alignment(1.0, c)
    p, q = dist({"a": 1}), dist({"b": 1})
    with pytest.raises(ValueError):
        batch_align(p, [q], alpha=0.5, c=c)


# -- batch_align -----------------------------------------------------------

def test_batch_max_in_batch_pins_worst_candidate_to_1_over_e():
    rng = random.Random(5)
    target = random_dist(rng)
    candidates = [random_dist(rng) for _ in range(4)]
    scores = batch_align(target, candidates, alpha=0.5)
    assert min(s.a_kl for s in scores) == pytest.approx(1 / math.e, abs=1e-12)
    assert all(0 < s.a_kl <= 1.0 for s in scores)
    assert len({s.c for s in scores}) == 1  # one shared c
    for s in scores:
        assert s.a_kl == pytest.approx(math.exp(-s.d_kl / s.c), rel=1e-12)


def test_batch_identical_candidate_scores_one():
    p = dist({"a": 2, "b": 2})
    with pytest.warns(UserWarning):
        scores = batch_align(p, [p], alpha=0.5)
    assert scores[0].a_kl == 1.0
    assert scores[0].d_kl == 0.0


def test_batch_fixed_c():
    p = dist({"a": 2, "b": 2})
    q = dist({"a": 1, "b": 3})
    scores = batch_align(p, [q, p], alpha=0.5, c=1.0)
    assert all(s.c == 1.0 for s in scores)
    assert scores[0].a_kl == pytest.approx(math.exp(-scores[0].d_kl), rel=1e-12)
    assert scores[1].a_kl == 1.0


def test_batch_requires_candidates():
    p = dist({"a": 1})
    with pytest.raises(ValueError):
        batch_align(p, [], alpha=0.5)


def test_align_single_pair_fixed_c():
    p = dist({"a": 2, "b": 2})
    q = dist({"a": 1, "b": 3})
    score = align(p, q, alpha=0.5, c=2.0)
    assert isinstance(score, AlignmentScore)
    assert score.a_kl == pytest.approx(math.exp(-score.d_kl / 2.0), rel=1e-12)
    assert score.alpha == 0.5


# -- alignment_ratio ---------------------------------------------------------

def test_ratio_equal_train_and_pred_is_one():
    target = dist({"a": 1, "b": 2})
    other = dist({"a": 2, "b": 1})
    ratio = alignment_ratio(target, other, other, alpha=0.5, c=1.0)
    assert ratio.ar == 1.0
    assert ratio.numerator.c == ratio.denominator.c == 1.0


def test_ratio_perfect_train_alignment():
    target = dist({"a": 1, "b": 2})
    pred = dist({"a": 5, "b": 1})
    ratio = alignment_ratio(target, target, pred, alpha=0.5, c=1.0)
    assert ratio.numerator.a_kl == 1.0
    assert ratio.ar == pytest.approx(1.0 / ratio.denominator.a_kl, rel=1e-12)
    assert ratio.ar >= 1.0


def test_ratio_matches_component_scores():
    rng = random.Random(11)
    for _ in range(50):
        target, train, pred = (random_dist(rng) for _ in range(3))
        c = rng.uniform(0.2, 5.0)
        ratio = alignment_ratio(target, train, pred, alpha=0.5, c=c)
        assert ratio.ar == pytest.approx(ratio.numerator.a_kl / ratio.denominator.a_kl,
                                         rel=1e-9)


def test_ratio_sign_iff_divergence_order():
    rng = random.Random(13)
    for _ in range(200):
        target, train, pred = (random_dist(rng) for _ in range(3))
        c = rng.uniform(0.1, 10.0)
        ratio = alignment_ratio(target, train, pred, alpha=0.5, c=c)
        assert (ratio.ar > 1.0) == (ratio.numerator.d_kl < ratio.denominator.d_kl)


def test_scores_and_ratios_compare_by_their_fields_and_are_frozen():
    score = AlignmentScore(d_kl=0.1, a_kl=0.9, c=1.0, alpha=0.5)
    other = AlignmentScore(d_kl=0.3, a_kl=0.7, c=1.0, alpha=0.5)
    ratio = AlignmentRatio(numerator=score, denominator=score)
    assert ratio == AlignmentRatio(AlignmentScore(0.1, 0.9, 1.0, 0.5), score)
    assert hash(ratio) == hash(AlignmentRatio(score, score))
    assert ratio != AlignmentRatio(score, other) != AlignmentRatio(other, score)
    for value, field in ((score, "c"), (ratio, "ar")):
        with pytest.raises(AttributeError):
            setattr(value, field, 2.0)
    assert dist({"SELECT": 1}) == dist({"SELECT": 1}) != dist({"SELECT": 2})


def test_ratio_requires_shared_c():
    score_a = AlignmentScore(d_kl=0.1, a_kl=0.9, c=1.0, alpha=0.5)
    score_b = AlignmentScore(d_kl=0.2, a_kl=0.8, c=2.0, alpha=0.5)
    with pytest.raises(ValueError):
        AlignmentRatio(numerator=score_a, denominator=score_b)


def test_a_ratio_is_worked_out_from_its_two_scores():
    rng = random.Random(29)
    for _ in range(200):
        c = rng.uniform(0.01, 10.0)
        num, den = (AlignmentScore(d, math.exp(-d / c), c, 0.5)
                    for d in (rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)))
        ratio = AlignmentRatio(num, den)
        assert ratio.ar == math.exp(-(num.d_kl - den.d_kl) / num.c)
        assert (ratio.numerator, ratio.denominator) == (num, den)
    with pytest.raises(TypeError):
        AlignmentRatio(1.0, num, den)  # ar is no argument


@pytest.mark.parametrize("c", [5e-324, 1e-4])
def test_a_ratio_whose_c_is_too_small_raises_from_the_constructor(c):
    num = AlignmentScore(d_kl=0.0, a_kl=1.0, c=c, alpha=0.5)
    den = AlignmentScore(d_kl=1.0, a_kl=0.0, c=c, alpha=0.5)
    with pytest.raises(SqlAlignError, match=f"c {c!r} is too small"):
        AlignmentRatio(num, den)
    # the other way round ar underflows to 0.0, a finite number
    assert AlignmentRatio(den, num).ar == 0.0


_EXTREMES = [5e-324, 1e-320, 1e-310, 1e-4, 1e300, 1e308]


def _ratio_values(ratio):
    return [ratio.ar, *ratio.numerator, *ratio.denominator]


@pytest.mark.parametrize("c", _EXTREMES)
@pytest.mark.parametrize("alpha", _EXTREMES)
def test_extreme_alpha_or_c_gives_finite_results_or_sqlalign_error(alpha, c):
    rng = random.Random(17)
    target, train, pred = (random_dist(rng) for _ in range(3))
    select, from_ = dist({"SELECT": 1}), dist({"FROM": 1})
    calls = [
        lambda: [kl_divergence(select, from_, alpha)],
        lambda: [kl_divergence(target, train, alpha)],
        lambda: [x for score in batch_align(target, [train, pred], alpha, c) for x in score],
        lambda: [x for score in batch_align(target, [train, pred], alpha) for x in score],
        lambda: _ratio_values(alignment_ratio(target, train, pred, alpha, c)),
        lambda: _ratio_values(alignment_ratio(target, pred, train, alpha, c)),
    ]
    for call in calls:
        try:
            values = call()
        except SqlAlignError as exc:
            assert f"alpha {alpha!r} " in str(exc) or f"c {c!r} " in str(exc)
            continue
        assert all(type(v) is float and math.isfinite(v) for v in values)


# -- ovlp_ratio --------------------------------------------------------------

def test_ovlp_examples():
    assert ovlp_ratio({"A", "B", "C"}, {"A", "B", "C"}) == 1.0
    assert ovlp_ratio({"A", "B", "C"}, {"A", "C", "D"}) == 2 / 3
    assert ovlp_ratio({"A", "B"}, {"X", "Y"}) == 0.0
    assert ovlp_ratio({"A", "B"}, set()) == 0.0


def test_ovlp_empty_target_raises():
    with pytest.raises(EmptyTargetSetError):
        ovlp_ratio(set(), {"A"})


def test_ovlp_counts_distinct_templates():
    # duplicates on either side do not change the ratio
    assert ovlp_ratio(["A", "A", "B"], ["A", "A", "A"]) == 0.5


def test_ovlp_monotone_under_source_growth():
    rng = random.Random(3)
    universe = [f"T{i}" for i in range(30)]
    target = set(rng.sample(universe, 10))
    source: set[str] = set()
    previous = 0.0
    for item in universe:
        source.add(item)
        current = ovlp_ratio(target, source)
        assert current >= previous
        previous = current
    assert previous == 1.0
