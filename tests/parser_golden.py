"""Golden parity record of the SQL parser.

``record(sql)`` reduces one parse to what every downstream number depends
on: the ``ParseError`` text, or the structural template, the matching
pattern ids and a digest of the full tree (labels, roles, token kinds,
texts and positions). A digest of the token stream is kept too, so a
tokenizer change that a later parse error would hide still shows.

Running this module brings ``parser_golden.jsonl`` up to date with a
fixed, seeded list of inputs. Records already in the file are kept as they
are, so each line stays what the parser that first wrote it produced; the
parser installed now only records the inputs appended since:

    PYTHONPATH=src:tests python3 tests/parser_golden.py

A parser change that alters what a committed input records re-records
that input, and no other, by its SQL text: each line whose ``sql`` equals
an argument is rewritten in place with the parser installed now, and
every other line stays byte for byte as it was.

    PYTHONPATH=src:tests python3 tests/parser_golden.py --rerecord SQL [SQL ...]

Only run it on purpose, with the parser the new records should pin:
``test_parser_golden.py`` checks the parser against the committed file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
from pathlib import Path

import golden_file
from sqlalign.errors import ParseError
from sqlalign.parsing import Token, parse_sql, token_offsets, tokenize
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

# Operator-mix expressions: every binary precedence level, prefix chains,
# COLLATE and the predicate forms, so the file pins how operators group.
BINARY_OPS = ("||", "+", "-", "*", "/", "%", "=", "==", "<", ">", "<=", ">=",
              "<>", "!=", "AND", "OR")
SIGNS = ("-", "+", "~")
OPERANDS = ("a", "t.b", "1", "2.5", "'x'", "?", ":p", "NULL", "\"q\"", "f(a)",
            "COUNT(*)", "CURRENT_DATE")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def _shape(tree, offsets: list[int]) -> tuple:
    """The tree as nested tuples, each node with a role: "structural" for
    a leaf whose index among the leaves is in the root's ``positions``,
    "schema" for any other leaf and None for an inner node. So the digest
    pins which leaves the positions mark. A leaf token has the tuple of
    the "tok" leaf nodes that trees once had, with its offset from
    ``offsets``, the text's token_offsets, so the recorded digests still
    hold."""
    structural = set(tree.positions)
    leaf_index = itertools.count()

    def shape(node) -> tuple:
        if isinstance(node, Token):
            index = next(leaf_index)
            role = "structural" if index in structural else "schema"
            return ("tok", role, (node.kind, node.text, offsets[index]), ())
        return (node.label, None, None, tuple(shape(child) for child in node.children))

    return shape(tree)


def record(sql: str) -> dict:
    """The parity record of one input. ``crash`` names an exception other
    than ParseError, which the parser should never raise."""
    out: dict = {"sql": sql}
    try:
        out["tokens"] = _digest([(t.kind, t.text, pos)
                                 for t, pos in zip(tokenize(sql), token_offsets(sql), strict=True)])
    except ParseError:
        pass
    except Exception as exc:  # recorded, not hidden
        out["crash"] = type(exc).__name__
        return out
    try:
        tree = parse_sql(sql)
        out["template"] = derive_template(tree).canonical_text
        out["patterns"] = [spec.id for spec in DEFAULT_PATTERNS if spec.match(tree)]
        out["tree"] = _digest(_shape(tree, token_offsets(sql)))
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


def _mix_operand(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice(OPERANDS)
    if roll < 0.5:
        return f"({_mix_expr(rng, depth - 1)})"
    sub = _mix_operand(rng, depth - 1)
    if roll < 0.62:
        return " ".join(rng.choice(SIGNS) for _ in range(rng.randint(1, 3))) + " " + sub
    if roll < 0.7:
        return f"{sub} COLLATE NOCASE"
    other = _mix_operand(rng, depth - 1)
    neg = rng.choice(("", "NOT "))
    form = rng.randrange(5)
    if form == 0:
        return f"{sub} IS {neg}DISTINCT FROM {other}"
    if form == 1:
        return f"{sub} {neg}BETWEEN {other} AND {_mix_operand(rng, depth - 1)}"
    if form == 2:
        return f"{sub} {neg}IN ({other}, {_mix_operand(rng, depth - 1)})"
    if form == 3:
        escape = rng.choice(("", " ESCAPE '!'"))
        return f"{sub} {neg}{rng.choice(('LIKE', 'ILIKE', 'GLOB'))} {other}{escape}"
    return f"{sub} IS {neg}NULL"


def _mix_expr(rng: random.Random, depth: int) -> str:
    """Operands joined by binary operators; an operand that starts the
    expression or follows AND / OR may carry a chain of NOTs."""
    parts = []
    for i in range(rng.randint(2, 5)):
        if i:
            parts.append(rng.choice(BINARY_OPS))
        if (i == 0 or parts[-1] in ("AND", "OR")) and rng.random() < 0.3:
            parts.append(" ".join(["NOT"] * rng.randint(1, 3)))
        parts.append(_mix_operand(rng, depth))
    return " ".join(parts)


def operator_mix_inputs(seed: int = 20261018) -> list[str]:
    """Seeded queries that mix binary operators of every precedence level
    with prefix chains and predicates, plus broken variants of some."""
    rng = random.Random(seed)
    inputs = []
    for _ in range(600):
        sql = rng.choice(("SELECT {}", "SELECT {} FROM t", "SELECT a FROM t WHERE {}",
                          "SELECT a FROM t GROUP BY a HAVING {} ORDER BY {}"))
        sql = sql.format(*(_mix_expr(rng, 2) for _ in range(sql.count("{}"))))
        inputs.append(sql)
        if rng.random() < 0.2:
            inputs.append(_token_mutation(rng, sql))
    return inputs


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
    return inputs + operator_mix_inputs()


def committed_lines() -> list[str]:
    return golden_file.committed_lines(GOLDEN_PATH)


def committed_inputs() -> list[str]:
    """The ``sql`` column of the committed file, in order."""
    return [json.loads(line)["sql"] for line in committed_lines()]


def _line(sql: str) -> str:
    return json.dumps(record(sql), ensure_ascii=False, separators=(",", ":"))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Append the new inputs of golden_inputs() "
                                     "to the golden file, or re-record committed ones")
    parser.add_argument("--rerecord", nargs="+", default=[], metavar="SQL",
                        help="rewrite the lines of these committed inputs in place")
    args = parser.parse_args(argv)
    golden_file.append_or_rerecord(
        GOLDEN_PATH, "sql", golden_inputs(), lambda sqls: [_line(sql) for sql in sqls],
        args.rerecord,
        f"{GOLDEN_PATH.name} does not start with golden_inputs(); inputs may only be appended",
        lambda unknown: "not a committed input: " + ", ".join(map(repr, unknown)))


if __name__ == "__main__":
    main()
