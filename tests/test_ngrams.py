import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlalign.errors import EmptyDistributionError, FormatError
from sqlalign.keywords import SQL_KEYWORDS
from sqlalign.ngrams import (
    build_distribution,
    read_distribution,
    sorted_items,
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
    template occurrence. Oracle for the distribution builder."""
    counts = {}
    for tokens in token_lists:
        tokens = list(tokens)
        length = len(tokens)
        for start in range(length):
            for end in range(start + 1, min(start + l_max, length) + 1):
                window = tuple(tokens[start:end])
                if naive_is_valid(window):
                    counts[window] = counts.get(window, 0) + 1
    return counts


TOKEN_POOL = ["SELECT", "FROM", "WHERE", "GROUP", "BY", "COUNT", "SUM", "ON",
              "JOIN", "(", ")", ",", "=", "*", "/", "+", "||", "<", "xx", "yy"]


def test_build_rejects_bad_l_max():
    with pytest.raises(ValueError):
        build_distribution([["SELECT"]], l_max=0)


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
        dist = build_distribution([gram], l_max=len(gram))
    except EmptyDistributionError:
        assert not expected  # nothing in the gram survives
        return
    assert (gram in dist.counts) is expected


def test_build_pools_duplicate_templates():
    dist = build_distribution([StructuralTemplate(("SELECT",)),
                               StructuralTemplate(("SELECT",))], l_max=15)
    assert dist.counts == {("SELECT",): 2}
    assert dist.total == 2


def test_build_select_star_from_example():
    dist = build_distribution([["SELECT", "*", "FROM"]], l_max=3)
    assert set(dist.counts) == {("SELECT",), ("FROM",), ("SELECT", "*"),
                                ("*", "FROM"), ("SELECT", "*", "FROM")}
    assert dist.total == 5


def test_build_empty_input_raises():
    with pytest.raises(EmptyDistributionError):
        build_distribution([], l_max=15)


def test_build_nothing_survives_filter_raises():
    with pytest.raises(EmptyDistributionError):
        build_distribution([["(", ")", "*"]], l_max=3)


def test_every_stored_ngram_passes_the_filter():
    templates = [templatize(q) for q in [
        "SELECT a, b FROM t WHERE c = 1",
        "SELECT COUNT(*) FROM t GROUP BY a",
        "SELECT x FROM (SELECT x FROM u) s",
    ]]
    dist = build_distribution(templates, l_max=15)
    assert all(naive_is_valid(g) for g in dist.counts)
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
        dist = build_distribution(token_lists, l_max=l_max)
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
        before = build_distribution(token_lists, l_max=5)
    except EmptyDistributionError:
        return
    shuffled = list(token_lists)
    rng.shuffle(shuffled)
    after = build_distribution(shuffled, l_max=5)
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
    loaded = read_distribution(path_a)
    assert loaded.counts == dist.counts
    assert loaded.total == dist.total
    assert loaded.l_max == dist.l_max
    assert loaded.source_label == "demo"
    keys = [k for k, _ in sorted_items(dist)]
    assert keys == sorted(keys)


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


@pytest.mark.parametrize("content", [
    "not json",                                   # not JSON
    "[1, 2]",                                     # not an object
    "{}",                                         # neither l_max nor counts
    '{"counts": {"SELECT": 1}}',                  # no l_max
    '{"l_max": 15}',                              # no counts
    '{"l_max": 15, "counts": {"SELECT": 1.5}}',   # non-integer count
    '{"l_max": 15, "counts": {"SELECT": "1"}}',   # count as a string
])
def test_read_distribution_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "dist.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(FormatError, match="dist.json"):
        read_distribution(path)
