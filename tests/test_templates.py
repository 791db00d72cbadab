import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from sqlalign.keywords import SQL_KEYWORDS, TEMPLATE_OPERATORS
from sqlalign.parsing import parse_sql
from sqlalign.templates import derive_template, templatize

# The one fully worked leaf-removal example this tool is calibrated on.
GOLDEN_QUERY = ("SELECT meal/enrollment FROM frpm WHERE county='Alameda' "
                "ORDER BY (CAST(meal AS REAL) / enrollment) DESC LIMIT 1")
GOLDEN_TEMPLATE = "SELECT / FROM WHERE = ORDER BY ( CAST ( ) / ) DESC LIMIT"


def test_golden_template():
    assert templatize(GOLDEN_QUERY).canonical_text == GOLDEN_TEMPLATE


@pytest.mark.parametrize("sql,expected", [
    ("SELECT * FROM t WHERE x = 5", "SELECT * FROM WHERE ="),
    ("SELECT a, SUM(b) FROM t GROUP BY a", "SELECT , SUM ( ) FROM GROUP BY"),
    ("SELECT 1", "SELECT"),
    ("SELECT COUNT(*) FROM t", "SELECT COUNT ( * ) FROM"),
    ("SELECT a FROM t WHERE b IN (1, 2, 3)", "SELECT FROM WHERE IN ( , , )"),
    ("SELECT t.a FROM db.t", "SELECT FROM"),
])
def test_leaf_removal_examples(sql, expected):
    assert templatize(sql).canonical_text == expected


def test_cast_type_annotation_drops_with_its_parameters():
    assert templatize("SELECT CAST(a AS VARCHAR(20)) FROM t").canonical_text == \
        "SELECT CAST ( ) FROM"
    assert templatize("SELECT CAST(a AS DECIMAL(10, 2)) FROM t").canonical_text == \
        "SELECT CAST ( ) FROM"


def test_keywords_uppercased_case_insensitive_input():
    assert templatize("select a from t where b like 'x%'") == \
        templatize("SELECT a FROM t WHERE b LIKE 'y%'")


def test_alias_forms_are_equivalent():
    # optional AS and the alias itself are schema-specific
    with_as = templatize("SELECT t.a AS col1 FROM tab AS t")
    without = templatize("SELECT t.a col1 FROM tab t")
    bare = templatize("SELECT t.a FROM tab t")
    assert with_as == without == bare


def test_quoting_style_does_not_change_template():
    variants = [
        'SELECT "a col" FROM t',
        "SELECT `a col` FROM t",
        "SELECT [a col] FROM t",
        "SELECT acol FROM t",
    ]
    templates = {templatize(v).canonical_text for v in variants}
    assert templates == {"SELECT FROM"}


def test_comments_and_semicolons_ignored():
    assert templatize("SELECT a FROM t; -- done") == templatize("SELECT a FROM t")


def test_templatize_is_deterministic_and_idempotent():
    sql = "SELECT a, COUNT(*) FROM t WHERE b > 3 GROUP BY a"
    first = templatize(sql)
    second = templatize(sql)
    assert first == second
    assert first.canonical_text == second.canonical_text
    assert first.canonical_text == " ".join(first.tokens)


def test_template_tokens_come_from_the_allowed_universe():
    for sql in [GOLDEN_QUERY, "SELECT a || 'x', b % 2 FROM t WHERE c != 1 AND d <> 2"]:
        for tok in templatize(sql).tokens:
            assert tok in SQL_KEYWORDS or tok in TEMPLATE_OPERATORS, tok


def test_derive_template_takes_only_a_parse_sql_root():
    tree = parse_sql("SELECT a FROM t WHERE b IN (SELECT c FROM u)")
    assert derive_template(tree).canonical_text == "SELECT FROM WHERE IN ( SELECT FROM )"
    for node in (next(tree.find_all("subquery")), tree.children[0]):
        with pytest.raises(ValueError, match="tree returned by parse_sql"):
            derive_template(node)


def test_qualified_star_matches_bare_star():
    assert templatize("SELECT t.* FROM t") == templatize("SELECT * FROM t")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000),
       skeleton=st.sampled_from(corpusgen.SKELETONS + corpusgen.FAR_SKELETONS))
def test_schema_renaming_invariance(seed, skeleton):
    # same structural skeleton, fully renamed identifiers and changed literals
    original, renamed = corpusgen.make_query_pair(random.Random(seed), skeleton=skeleton)
    assert templatize(original) == templatize(renamed)


def test_templates_contain_no_identifiers_or_literals():
    rng = random.Random(7)
    leaf_texts = set()
    for pool in (corpusgen.POOL_A, corpusgen.POOL_B):
        for kind in ("t", "c", "a"):
            leaf_texts.update(tok.upper() for tok in pool[kind])
        leaf_texts.update(s.strip("'").upper() for s in pool["s"])
        leaf_texts.update(pool["n"])
    for _ in range(50):
        sql = corpusgen.make_query(rng)
        for tok in templatize(sql).tokens:
            assert tok not in leaf_texts, (sql, tok)
