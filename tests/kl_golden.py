"""Golden record of n-gram distributions and KL divergences.

``golden_lines()`` builds the distributions of a few seeded
``corpusgen`` corpora at two window lengths and returns, as JSON lines,
the exact ``write_distribution`` text of each and the ``repr`` of
``kl_divergence`` for every ordered pair of corpora (a corpus with itself
included) at several smoothing constants. ``repr`` keeps every bit of a
float, so a change to how distributions are built or how KL terms are
summed shows as a changed line, not as a tolerance.

Running this module rewrites ``kl_golden.jsonl`` with the code installed
now:

    PYTHONPATH=src:tests python3 tests/kl_golden.py

Only run it on purpose: ``test_kl_golden.py`` checks the code against the
committed file.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from corpusgen import FAR_SKELETONS, SKELETONS, make_mixture_corpus
from sqlalign.metrics import kl_divergence
from sqlalign.ngrams import build_distribution, write_distribution
from sqlalign.templates import templatize

GOLDEN_PATH = Path(__file__).with_name("kl_golden.jsonl")

L_MAXES = (15, 3)
ALPHAS = (0.5, 1e-6, 3.0)


def golden_corpora() -> dict[str, list[str]]:
    """Seeded corpora with near, far, mixed, skewed and tiny template
    mixtures, so the pairs cover shared keys, keys on one side only and
    counts that differ by orders of magnitude."""
    skewed = [2.0 ** -i for i in range(len(SKELETONS))]
    return {
        "mix-1": make_mixture_corpus(200, seed=1),
        "skewed-2": make_mixture_corpus(200, seed=2, weights=skewed),
        "far-3": make_mixture_corpus(150, seed=3, skeletons=FAR_SKELETONS),
        "both-4": make_mixture_corpus(120, seed=4, skeletons=SKELETONS + FAR_SKELETONS),
        "tiny-5": make_mixture_corpus(5, seed=5),
    }


def golden_lines() -> list[str]:
    """One JSON line per distribution file, then one per KL value."""
    templates = {name: [templatize(sql) for sql in queries]
                 for name, queries in golden_corpora().items()}
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dist.json"
        for l_max in L_MAXES:
            dists = {name: build_distribution(ts, l_max=l_max, source_label=name)
                     for name, ts in templates.items()}
            for name, dist in dists.items():
                write_distribution(dist, path)
                lines.append(json.dumps({"corpus": name, "l_max": l_max,
                                         "file": path.read_text(encoding="utf-8")}))
            for p_name, p in dists.items():
                for q_name, q in dists.items():
                    for alpha in ALPHAS:
                        lines.append(json.dumps({
                            "p": p_name, "q": q_name, "l_max": l_max, "alpha": alpha,
                            "kl": repr(kl_divergence(p, q, alpha=alpha))}))
    return lines


def main() -> None:
    GOLDEN_PATH.write_text("".join(line + "\n" for line in golden_lines()),
                           encoding="utf-8")


if __name__ == "__main__":
    main()
