"""Golden parity record of the SQL parser.

``record(sql)`` reduces one parse to what every downstream number depends
on: the ``ParseError`` text, or the structural template, the matching
pattern ids and a digest of the full tree (labels, roles, token kinds,
texts and positions). A digest of the token stream is kept too, so a
tokenizer change that a later parse error would hide still shows.

Running this module rewrites ``parser_golden.jsonl`` from the parser that
is installed now, over a fixed, seeded set of inputs:

    PYTHONPATH=src:tests python3 tests/parser_golden.py

Only regenerate it on purpose: ``test_parser_golden.py`` checks the parser
against the committed file.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from sqlalign.errors import ParseError
from sqlalign.parsing import parse_sql, tokenize
from sqlalign.patterns import DEFAULT_PATTERNS
from sqlalign.templates import derive_template

GOLDEN_PATH = Path(__file__).with_name("parser_golden.jsonl")

# Spliced into valid queries: quote and comment openers, PostgreSQL-isms,
# and characters that str.isdigit / str.isspace accept beyond ASCII.
INSERTIONS = ("'", '"', "`", "[", "/*", ":", "::", "$1", "²", "١", "\u00a0")

# Alphabets for random inputs: whole SQL tokens, and single characters.
WORD_ALPHABET = (
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "HAVING", "LIMIT",
    "OFFSET", "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE", "BETWEEN",
    "CASE", "WHEN", "THEN", "ELSE", "END", "AS", "JOIN", "LEFT", "ON",
    "UNION", "ALL", "DISTINCT", "EXISTS", "CAST", "WITH", "OVER",
    "PARTITION", "COUNT", "SUM", "(", ")", "(", ")", ",", "*", "=", "<",
    "-", "||", ".", "a", "b", "t", "u", "1", "2.5", "'x'", "?", ":p",
    "\"q\"", "ASC", "DESC", "COLLATE", "INTERVAL", "EXTRACT", "FILTER",
)
CHAR_ALPHABET = "SELECTFROMWHEREabc_19 ()*,.;:?@'\"`[]-/+<>=!|%~\n$²\u00a0"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def _shape(node) -> tuple:
    token = node.token
    return (node.label, node.role,
            None if token is None else (token.kind, token.text, token.pos),
            tuple(_shape(child) for child in node.children))


def record(sql: str) -> dict:
    """The parity record of one input. ``crash`` names an exception other
    than ParseError, which the parser should never raise."""
    out: dict = {"sql": sql}
    try:
        out["tokens"] = _digest([(t.kind, t.text, t.pos) for t in tokenize(sql)])
    except ParseError:
        pass
    except Exception as exc:  # recorded, not hidden
        out["crash"] = type(exc).__name__
        return out
    try:
        tree = parse_sql(sql)
        out["template"] = derive_template(tree).canonical_text
        out["patterns"] = [spec.id for spec in DEFAULT_PATTERNS if spec.match(tree)]
        out["tree"] = _digest(_shape(tree))
    except ParseError as exc:
        out["error"] = str(exc)
    except Exception as exc:
        out["crash"] = type(exc).__name__
    return out


def _base_queries(rng: random.Random) -> list[str]:
    import corpusgen
    from test_parsing import QUERY_ZOO

    queries = list(QUERY_ZOO)
    for skeleton in corpusgen.SKELETONS + corpusgen.FAR_SKELETONS:
        for pool in (corpusgen.POOL_A, corpusgen.POOL_B, corpusgen.POOL_A):
            queries.append(corpusgen.make_query(rng, skeleton=skeleton, pool=pool))
    return queries


def _token_mutation(rng: random.Random, sql: str) -> str:
    words = sql.split(" ")
    i = rng.randrange(len(words))
    op = rng.randrange(3)
    if op == 0:
        del words[i]
    elif op == 1:
        words.insert(i, words[i])
    elif i + 1 < len(words):
        words[i], words[i + 1] = words[i + 1], words[i]
    return " ".join(words)


def golden_inputs(seed: int = 20251004) -> list[str]:
    """A few thousand inputs: valid queries, their prefixes, splices and
    token mutations, random token and character strings, and edge cases."""
    rng = random.Random(seed)
    base = _base_queries(rng)
    inputs = list(base)
    for sql in base:
        for cut in sorted(rng.sample(range(1, len(sql)), min(6, len(sql) - 1))):
            inputs.append(sql[:cut])
        for insertion in INSERTIONS:
            at = rng.randrange(len(sql) + 1)
            inputs.append(sql[:at] + insertion + sql[at:])
        for _ in range(4):
            inputs.append(_token_mutation(rng, sql))
    for _ in range(700):
        inputs.append(" ".join(rng.choice(WORD_ALPHABET) for _ in range(rng.randint(1, 14))))
    for _ in range(500):
        inputs.append("".join(rng.choice(CHAR_ALPHABET) for _ in range(rng.randint(1, 24))))
    inputs += [
        "", "   ", "-- only a comment", "/* only */ ;", ";", "SELECT ²",
        "SELECT .²", "SELECT ١ FROM t", "SELECT a FROM t",
        "SELECT STRFTIME('Rock'', label) FROM t", "SELECT 'a''''b' FROM t",
        "SELECT \"a\"\"b\" FROM t", "SELECT a FROM t -- trailing",
        "SELECT a /* x */ FROM t /* unterminated", "SELECT 1e5, .5, 1.2.3, 3e+2 FROM t",
        "SELECT a::int FROM t", "SELECT a FROM t WHERE b = $1",
        "SELECT " + "(" * 30 + "1" + ")" * 30,
        "SELECT " + "(" * 3000 + "1" + ")" * 3000,
        "SELECT " + "(" * 3000,
        "SELECT " + "- " * 200 + "1",
        "SELECT " + "NOT " * 100 + "1",
    ]
    return inputs


def main() -> None:
    with open(GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as fh:
        for sql in golden_inputs():
            fh.write(json.dumps(record(sql), ensure_ascii=False, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
