"""Structural alignment metrics for text-to-SQL corpora.

Pipeline: parse SQL into syntax trees, derive structural templates, pool
filtered n-grams into per-corpus distributions, then compare corpora via
smoothed KL divergence, the KL-alignment transform, alignment ratios,
template-overlap ratios and traceable-pattern counts.
"""

from .corpus import (
    Corpus,
    CorpusRecord,
    SampleSpec,
    SqlCorpus,
    TemplatizeResult,
    load_corpus,
    load_sql,
    sample_corpus,
    templatize_corpus,
)
from .errors import (
    EmptyCorpusError,
    EmptyDistributionError,
    EmptyTargetSetError,
    FormatError,
    ParseError,
    SpecMismatchError,
    SqlAlignError,
)
from .keywords import SQL_KEYWORDS
from .metrics import (
    DEFAULT_ALPHA,
    AlignmentRatio,
    AlignmentScore,
    align,
    alignment_ratio,
    batch_align,
    kl_alignment,
    kl_divergence,
    ovlp_ratio,
)
from .ngrams import (
    DEFAULT_L_MAX,
    NGram,
    NGramDistribution,
    build_distribution,
    write_distribution,
)
from .parsing import Node, parse_sql
from .patterns import (
    DEFAULT_PATTERNS,
    PatternCounts,
    PatternSpec,
    count_patterns,
    diff_pattern_counts,
)
from .templates import StructuralTemplate, derive_template, templatize

__version__ = "0.1.0"

__all__ = [
    "AlignmentRatio",
    "AlignmentScore",
    "Corpus",
    "CorpusRecord",
    "DEFAULT_ALPHA",
    "DEFAULT_L_MAX",
    "DEFAULT_PATTERNS",
    "EmptyCorpusError",
    "EmptyDistributionError",
    "EmptyTargetSetError",
    "FormatError",
    "NGram",
    "NGramDistribution",
    "Node",
    "ParseError",
    "PatternCounts",
    "PatternSpec",
    "SQL_KEYWORDS",
    "SampleSpec",
    "SpecMismatchError",
    "SqlAlignError",
    "SqlCorpus",
    "StructuralTemplate",
    "TemplatizeResult",
    "align",
    "alignment_ratio",
    "batch_align",
    "build_distribution",
    "count_patterns",
    "derive_template",
    "diff_pattern_counts",
    "kl_alignment",
    "kl_divergence",
    "load_corpus",
    "load_sql",
    "ovlp_ratio",
    "parse_sql",
    "sample_corpus",
    "templatize",
    "templatize_corpus",
    "write_distribution",
]
