import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlalign.errors import EmptyDistributionError
from sqlalign.keywords import SQL_KEYWORDS
from sqlalign.ngrams import (
    NGramDistribution,
    build_distribution,
    write_distribution,
)
from sqlalign.templates import StructuralTemplate, templatize


def naive_is_valid(window):
    """The filter restated from scratch: a keyword, no comma at either
    end, as many "(" as ")"."""
    if window[0] == "," or window[-1] == ",":
        return False
    if sum(1 for t in window if t == "(") != sum(1 for t in window if t == ")"):
        return False
    return any(t in SQL_KEYWORDS for t in window)


def naive_valid_counts(token_lists, l_max):
    """Independent enumerator: loops over (start, end) spans of every
    template occurrence and keys each valid window by its space-joined
    tokens. Oracle for the distribution builder."""
    counts = {}
    for tokens in token_lists:
        tokens = list(tokens)
        length = len(tokens)
        for start in range(length):
            for end in range(start + 1, min(start + l_max, length) + 1):
                window = tokens[start:end]
                if naive_is_valid(window):
                    gram = " ".join(window)
                    counts[gram] = counts.get(gram, 0) + 1
    return counts


TOKEN_POOL = ["SELECT", "FROM", "WHERE", "GROUP", "BY", "COUNT", "SUM", "ON",
              "JOIN", "(", ")", ",", "=", "*", "/", "+", "||", "<", "xx", "yy"]


def as_templates(token_lists):
    """Token lists as the StructuralTemplates build_distribution takes."""
    return [StructuralTemplate(tuple(tokens)) for tokens in token_lists]


def test_build_rejects_bad_l_max():
    with pytest.raises(ValueError):
        build_distribution(as_templates([["SELECT"]]), l_max=0)


def test_build_rejects_a_token_holding_a_space():
    # "SELECT a b" would key both ("SELECT", "a b") and ("SELECT a", "b")
    with pytest.raises(ValueError, match="space"):
        build_distribution(as_templates([["SELECT", "a b"]]), l_max=2)


@pytest.mark.parametrize("gram,expected", [
    (("FROM", "WHERE"), True),
    (("(", ")"), False),           # balanced but keyword-free
    ((",", "SELECT"), False),      # begins with comma
    (("SELECT", ","), False),      # ends with comma
    (("SELECT", "("), False),      # unmatched paren
    (("SELECT", "(", ")"), True),
    (("*",), False),
    (("SELECT",), True),
    (("SELECT", ",", "FROM"), True),  # interior comma is fine
    ((")", "FROM", "("), True,),      # equal counts, order not required
])
def test_validity_filter(gram, expected):
    # With l_max == len(gram) the whole gram is the only window of its length.
    try:
        dist = build_distribution(as_templates([gram]), l_max=len(gram))
    except EmptyDistributionError:
        assert not expected  # nothing in the gram survives
        return
    assert (" ".join(gram) in dist.counts) is expected


def test_build_pools_duplicate_templates():
    dist = build_distribution([StructuralTemplate(("SELECT",)),
                               StructuralTemplate(("SELECT",))], l_max=15)
    assert dist.counts == {"SELECT": 2}
    assert dist.total == 2


def test_build_select_star_from_example():
    dist = build_distribution(as_templates([["SELECT", "*", "FROM"]]), l_max=3)
    assert set(dist.counts) == {"SELECT", "FROM", "SELECT *", "* FROM", "SELECT * FROM"}
    assert dist.total == 5


def test_build_empty_input_raises():
    with pytest.raises(EmptyDistributionError):
        build_distribution([], l_max=15)


def test_build_nothing_survives_filter_raises():
    with pytest.raises(EmptyDistributionError):
        build_distribution(as_templates([["(", ")", "*"]]), l_max=3)


def test_every_stored_ngram_passes_the_filter():
    templates = [templatize(q) for q in [
        "SELECT a, b FROM t WHERE c = 1",
        "SELECT COUNT(*) FROM t GROUP BY a",
        "SELECT x FROM (SELECT x FROM u) s",
    ]]
    dist = build_distribution(templates, l_max=15)
    assert all(naive_is_valid(g.split(" ")) for g in dist.counts)
    assert dist.total == sum(dist.counts.values()) > 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=20),
                min_size=1, max_size=4)
       .flatmap(lambda distinct: st.lists(st.sampled_from(distinct), min_size=1, max_size=8)),
       st.integers(1, 15))
def test_matches_naive_enumerator(token_lists, l_max):
    # Templates repeat, so the count-per-distinct-template path is exercised.
    naive = naive_valid_counts(token_lists, l_max)
    try:
        dist = build_distribution(as_templates(token_lists), l_max=l_max)
    except EmptyDistributionError:
        assert naive == {}
        return
    assert dist.counts == naive
    assert dist.total == sum(naive.values())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=12),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_build_is_order_independent(token_lists, rng):
    try:
        before = build_distribution(as_templates(token_lists), l_max=5)
    except EmptyDistributionError:
        return
    shuffled = list(token_lists)
    rng.shuffle(shuffled)
    after = build_distribution(as_templates(shuffled), l_max=5)
    assert before.counts == after.counts
    assert before.total == after.total


def test_export_import_roundtrip_and_byte_stability(tmp_path):
    templates = [templatize("SELECT a, SUM(b) FROM t GROUP BY a"),
                 templatize("SELECT COUNT(*) FROM t")]
    dist = build_distribution(templates, l_max=6, source_label="demo")
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    write_distribution(dist, path_a)
    write_distribution(dist, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    loaded = json.loads(path_a.read_text(encoding="utf-8"))
    assert loaded["counts"] == dist.counts
    assert loaded["total"] == dist.total
    assert loaded["l_max"] == dist.l_max
    assert loaded["source_label"] == "demo"
    keys = list(loaded["counts"])
    assert keys == sorted(keys)


@pytest.mark.parametrize("counts, label", [
    ({"SELECT": 3, "SELECT FROM": 2, 'x "quoted" \\ FROM': 1, "\u00e9t\u00e9 \u2603 WHERE": 4,
      "\t\n SELECT": 5}, 'la"bel \\ \u00fc\u2603\n'),
    ({"SELECT": 1}, ""),
    ({}, "empty"),
])
def test_write_distribution_writes_what_indented_json_dumps_writes(tmp_path, counts, label):
    dist = NGramDistribution(counts=counts, l_max=4, source_label=label)
    path = tmp_path / "dist.json"
    write_distribution(dist, path)
    payload = {"l_max": 4, "source_label": label, "total": dist.total, "counts": counts}
    expected = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("existing", [b"old bytes\n", None], ids=["existing-file", "no-file"])
def test_write_distribution_of_unencodable_label_leaves_the_path_alone(tmp_path, existing):
    # a file name holding the byte 0xff reaches source_label as "\udcff"
    dist = build_distribution([templatize("SELECT a FROM t")], l_max=3, source_label="x\udcff.jsonl")
    path = tmp_path / "dist.json"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(UnicodeEncodeError):
        write_distribution(dist, path)
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing
