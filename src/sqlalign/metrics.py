"""Divergence and alignment metrics between n-gram distributions.

KL divergence is computed with additive smoothing over the union vocabulary
of the two compared distributions, in natural log (nats); without smoothing
the sum diverges whenever the right-hand distribution misses an n-gram.
The KL-alignment transform exp(-d/c) maps divergence into (0, 1].
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Sequence

from ._value import FrozenValue
from .errors import EmptyDistributionError, EmptyTargetSetError, SpecMismatchError
from .ngrams import NGramDistribution

DEFAULT_ALPHA = 0.5


def _positive_finite(x: float) -> bool:
    """False for zero, negative values, NaN and infinity."""
    return math.isfinite(x) and x > 0


class AlignmentScore(NamedTuple):
    """One divergence measurement plus its alignment transform and the
    constants it was computed with."""

    d_kl: float
    a_kl: float
    c: float
    alpha: float


class AlignmentRatio(FrozenValue):
    """Alignment of target-vs-train relative to target-vs-predictions;
    ar > 1 means the training set sits closer to the target than the
    baseline predictions do."""

    _fields = ("ar", "numerator", "denominator")

    def __init__(self, ar: float, numerator: AlignmentScore, denominator: AlignmentScore):
        if numerator.c != denominator.c:
            raise ValueError("alignment ratio requires one shared scaling constant c")
        object.__setattr__(self, "ar", ar)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)


def kl_divergence(p: NGramDistribution, q: NGramDistribution,
                  alpha: float = DEFAULT_ALPHA) -> float:
    """Smoothed KL divergence D(p || q) in nats.

    Both count vectors are smoothed by adding alpha to every n-gram of the
    union vocabulary V and normalizing by (total + alpha * |V|). A term
    depends only on the pair (count in p, count in q), so each distinct
    pair's term is computed once and repeated as many times as the pair
    occurs. math.fsum rounds the exact sum of that multiset of terms once,
    so the result is bit-identical to summing one term per n-gram in any
    order, and does not depend on string hashing. Exact zeros can come
    out a hair negative in floating point; values inside -1e-9..0 are
    clamped to 0. Distributions built with different l_max raise
    SpecMismatchError.
    """
    if not _positive_finite(alpha):
        raise ValueError("alpha must be positive and finite")
    if p.total <= 0 or q.total <= 0:
        raise EmptyDistributionError("cannot compare empty distributions")
    if p.l_max != q.l_max:
        raise SpecMismatchError(f"cannot compare distributions with l_max {p.l_max} and {q.l_max}")
    pc, qc = p.counts, q.counts
    shared = pc.keys() & qc.keys()
    shared_p = list(map(pc.__getitem__, shared))
    shared_q = list(map(qc.__getitem__, shared))
    pairs = Counter(zip(shared_p, shared_q))
    # An n-gram in one distribution only pairs its count with 0; the counts
    # of those n-grams are all counts of that side less the shared ones.
    for count, n in (Counter(pc.values()) - Counter(shared_p)).items():
        pairs[count, 0] += n
    for count, n in (Counter(qc.values()) - Counter(shared_q)).items():
        pairs[0, count] += n
    vocab = len(pc) + len(qc) - len(shared)
    denom_p = p.total + alpha * vocab
    denom_q = q.total + alpha * vocab
    terms = []
    for count_p, count_q in pairs:
        pp = (count_p + alpha) / denom_p
        qq = (count_q + alpha) / denom_q
        terms.append(pp * math.log(pp / qq))
    total = math.fsum(chain.from_iterable(map(repeat, terms, pairs.values())))
    if -1e-9 < total < 0.0:
        return 0.0
    return total


def kl_alignment(d_kl: float, c: float) -> float:
    """exp(-d_kl / c): 1 at zero divergence, exactly 1/e at d_kl == c."""
    if not _positive_finite(c):
        raise ValueError("c must be positive and finite")
    return math.exp(-d_kl / c)


def align(target: NGramDistribution, candidate: NGramDistribution,
          alpha: float = DEFAULT_ALPHA, c: float = 1.0) -> AlignmentScore:
    """Score one candidate against a target with a fixed c."""
    d = kl_divergence(target, candidate, alpha)
    return AlignmentScore(d_kl=d, a_kl=kl_alignment(d, c), c=c, alpha=alpha)


def batch_align(target: NGramDistribution,
                candidates: Sequence[NGramDistribution],
                alpha: float = DEFAULT_ALPHA,
                c: float | None = None) -> list[AlignmentScore]:
    """Score every candidate against the target.

    With c=None (max-in-batch mode) the scaling constant is the largest
    divergence in the batch, so the farthest candidate scores exactly 1/e
    and every score lies in [1/e, 1]. Pass an explicit c for scores that
    are comparable across runs. When every divergence is 0 there is no
    scale to derive; c falls back to 1.0 and all scores are exactly 1.
    """
    if not candidates:
        raise ValueError("at least one candidate distribution is required")
    divergences = [kl_divergence(target, cand, alpha) for cand in candidates]
    if c is None:
        if len(candidates) == 1:
            warnings.warn(
                "max-in-batch scaling with a single candidate pins its score "
                "to 1/e (or 1.0 at zero divergence); pass a fixed c for a "
                "meaningful single-pair score",
                stacklevel=2,
            )
        d_max = max(divergences)
        c_eff = d_max if d_max > 0 else 1.0
    else:
        if not _positive_finite(c):
            raise ValueError("c must be positive and finite")
        c_eff = c
    return [AlignmentScore(d_kl=d, a_kl=kl_alignment(d, c_eff), c=c_eff, alpha=alpha)
            for d in divergences]


def alignment_ratio(target: NGramDistribution, train: NGramDistribution,
                    pred: NGramDistribution, alpha: float = DEFAULT_ALPHA,
                    c: float = 1.0) -> AlignmentRatio:
    """exp(-(D(target||train) - D(target||pred)) / c) with both component
    scores. The ar > 1 test is independent of c."""
    numerator = align(target, train, alpha, c)
    denominator = align(target, pred, alpha, c)
    ar = math.exp(-(numerator.d_kl - denominator.d_kl) / c)
    return AlignmentRatio(ar=ar, numerator=numerator, denominator=denominator)


def ovlp_ratio(target_templates: Iterable[str], source_templates: Iterable[str]) -> float:
    """Fraction of distinct target templates that also occur in the source
    set. Arguments are canonical template strings."""
    target_set = set(target_templates)
    if not target_set:
        raise EmptyTargetSetError("target template set is empty")
    return len(target_set & set(source_templates)) / len(target_set)
