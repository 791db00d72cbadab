"""Input generator for the sqlalign benchmark.

Writes the corpus files of one workload plus ``expected.json``, which holds
for every record its SQL string, the structural template it must yield
(``null`` when the row must fail to parse) and the ids of the patterns it
must match. The expected data is built alongside the SQL from the same
fragments; nothing here imports sqlalign, so the reference check in
``reference.py`` stays independent of the code it checks.

Workloads:
  hirep  JSON arrays drawn from the skeletons in tests/corpusgen.py; a few
         dozen templates repeat across thousands of rows.
  lorep  JSON-lines from a fragment composer (joins, AND/OR conjuncts,
         nested IN subqueries, aggregates, CAST); nearly one template per
         row.
  preds  CSV prediction dumps: about half of the rows repeat an earlier SQL
         string and about a fifth are malformed beyond any dialect.

Every random draw comes from one ``random.Random(seed)`` and no set or
dict order reaches the output, so one seed gives byte-identical files in
every process regardless of PYTHONHASHSEED.

Usage: python3 bench/gen.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Records per file. Chosen so that one round of the four CLI commands takes
# about four seconds on a 2-vCPU machine: parse cost per row differs about
# fourfold between the hirep and lorep shapes.
SIZES = {"hirep": 1300, "lorep": 300, "preds": 700}

# Hand-derived template and pattern ids of every skeleton in
# tests/corpusgen.py (SKELETONS, then FAR_SKELETONS). Keys are the
# skeleton strings, so a changed skeleton fails loudly instead of being
# checked against a stale expectation.
SKELETON_EXPECTED = {
    "SELECT {c1} FROM {t1}":
        ("SELECT FROM", ()),
    "SELECT {c1}, {c2} FROM {t1} WHERE {c3} = {s1}":
        ("SELECT , FROM WHERE =", ()),
    "SELECT COUNT(*) FROM {t1} WHERE {c1} > {n1}":
        ("SELECT COUNT ( * ) FROM WHERE >", ("count_star",)),
    "SELECT {c1}, SUM({c2}) FROM {t1} GROUP BY {c1}":
        ("SELECT , SUM ( ) FROM GROUP BY", ("attr_comma_sum",)),
    "SELECT SUM({c1}) FROM {t1}":
        ("SELECT SUM ( ) FROM", ("bare_sum",)),
    "SELECT {c1} FROM {t1} ORDER BY {c2} DESC LIMIT {n1}":
        ("SELECT FROM ORDER BY DESC LIMIT", ()),
    "SELECT {a1}.{c1}, {a2}.{c2} FROM {t1} {a1} JOIN {t2} {a2} ON {a1}.{c3} = {a2}.{c3}":
        ("SELECT , FROM JOIN ON =", ()),
    "SELECT COUNT({c1}) FROM {t1}":
        ("SELECT COUNT ( ) FROM", ("count_attr",)),
    "SELECT DISTINCT {c1} FROM {t1} WHERE {c2} LIKE {s1}":
        ("SELECT DISTINCT FROM WHERE LIKE", ()),
    "SELECT {c1} FROM {t1} WHERE {c2} BETWEEN {n1} AND {n2}":
        ("SELECT FROM WHERE BETWEEN AND", ()),
    "SELECT {c1} FROM {t1} WHERE {c2} IN (SELECT {c3} FROM {t2})":
        ("SELECT FROM WHERE IN ( SELECT FROM )", ("subquery",)),
    "SELECT CASE WHEN {c1} > {n1} THEN {s1} ELSE {s2} END FROM {t1}":
        ("SELECT CASE WHEN > THEN ELSE END FROM", ("case_when",)),
    "SELECT CAST({c1} AS REAL) / {c2} FROM {t1}":
        ("SELECT CAST ( ) / FROM", ()),
    "SELECT {c1} FROM {t1} WHERE {c2} IS NOT NULL":
        ("SELECT FROM WHERE IS NOT NULL", ()),
    "SELECT {c1}, COUNT(*) FROM {t1} GROUP BY {c1} HAVING COUNT(*) > {n1}":
        ("SELECT , COUNT ( * ) FROM GROUP BY HAVING COUNT ( * ) >", ("count_star",)),
    "SELECT MAX({c1}), MIN({c2}) FROM {t1}":
        ("SELECT MAX ( ) , MIN ( ) FROM", ()),
    "SELECT {c1} FROM {t1} UNION SELECT {c2} FROM {t2}":
        ("SELECT FROM UNION SELECT FROM", ("union_op",)),
    "SELECT {c1}, ROW_NUMBER() OVER (PARTITION BY {c2} ORDER BY {c3} DESC) FROM {t1}":
        ("SELECT , ROW_NUMBER ( ) OVER ( PARTITION BY ORDER BY DESC ) FROM", ()),
    "SELECT AVG({c1}) FROM {t1} WHERE {c2} = {s1} OR {c3} = {n1}":
        ("SELECT AVG ( ) FROM WHERE = OR =", ()),
    "SELECT {c1} FROM (SELECT {c1}, {c2} FROM {t1} WHERE {c3} > {n1}) {a1}":
        ("SELECT FROM ( SELECT , FROM WHERE > )", ("subquery",)),
    "SELECT IIF({c1} < {n1}, {s1}, {s2}) FROM {t1}":
        ("SELECT IIF ( < , , ) FROM", ("iif",)),
    "SELECT STRFTIME({s1}, {c1}) FROM {t1} WHERE {c2} <> {n1}":
        ("SELECT STRFTIME ( , ) FROM WHERE <>", ()),
    "SELECT {a1}.{c1} FROM {t1} {a1} LEFT JOIN {t2} {a2} ON {a1}.{c2} = {a2}.{c2} WHERE {a2}.{c3} IS NULL":
        ("SELECT FROM LEFT JOIN ON = WHERE IS NULL", ()),
    "SELECT {c1} || {s1} FROM {t1} LIMIT {n1} OFFSET {n2}":
        ("SELECT || FROM LIMIT OFFSET", ()),
    # FAR_SKELETONS
    "SELECT {a1}.{c1}, {a2}.{c2}, {a1}.{c3} FROM {t1} {a1} INNER JOIN {t2} {a2} ON {a1}.{c1} = {a2}.{c1} INNER JOIN {t1} {a1}2 ON {a2}.{c2} = {a1}2.{c2} WHERE {a1}.{c3} = {s1} AND {a2}.{c2} < {n1}":
        ("SELECT , , FROM INNER JOIN ON = INNER JOIN ON = WHERE = AND <", ()),
    "SELECT CAST(COUNT(CASE WHEN {c1} = {s1} THEN {n1} ELSE NULL END) AS REAL) * {n2} / COUNT({c2}) FROM {t1}":
        ("SELECT CAST ( COUNT ( CASE WHEN = THEN ELSE NULL END ) ) * / COUNT ( ) FROM",
         ("case_when", "count_attr")),
    "WITH {a1} AS (SELECT {c1}, AVG({c2}) FROM {t1} GROUP BY {c1}) SELECT {c1} FROM {a1} WHERE {c2} IS NULL ORDER BY {c1} ASC":
        ("WITH AS ( SELECT , AVG ( ) FROM GROUP BY ) SELECT FROM WHERE IS NULL ORDER BY ASC",
         ("subquery",)),
    "SELECT {c1} FROM {t1} WHERE NOT EXISTS (SELECT {n1} FROM {t2} WHERE {t2}.{c2} = {t1}.{c2}) GROUP BY {c1}":
        ("SELECT FROM WHERE NOT EXISTS ( SELECT FROM WHERE = ) GROUP BY", ("subquery",)),
    "SELECT {c1}, {c2} FROM (SELECT {c1}, {c2}, ROW_NUMBER() OVER (ORDER BY {c3} DESC) {a1} FROM {t1}) {a2} WHERE {a1} <= {n1}":
        ("SELECT , FROM ( SELECT , , ROW_NUMBER ( ) OVER ( ORDER BY DESC ) FROM ) WHERE <=",
         ("subquery",)),
    "SELECT SUM(IIF({c1} > {n1}, {c2}, {n2})) FROM {t1} WHERE {c3} GLOB {s1}":
        ("SELECT SUM ( IIF ( > , , ) ) FROM WHERE GLOB", ("bare_sum", "iif")),
    "SELECT {c1} FROM {t1} EXCEPT SELECT {c1} FROM {t2} INTERSECT SELECT {c2} FROM {t1}":
        ("SELECT FROM EXCEPT SELECT FROM INTERSECT SELECT FROM", ()),
    "SELECT EXTRACT(YEAR FROM {c1}), COUNT(DISTINCT {c2}) FROM {t1} GROUP BY EXTRACT(YEAR FROM {c1}) HAVING COUNT(DISTINCT {c2}) BETWEEN {n1} AND {n2}":
        ("SELECT EXTRACT ( YEAR FROM ) , COUNT ( DISTINCT ) FROM GROUP BY EXTRACT ( YEAR FROM ) HAVING COUNT ( DISTINCT ) BETWEEN AND",
         ("count_attr",)),
}


def load_corpusgen():
    """Import tests/corpusgen.py by path; the tests directory is not a
    package."""
    path = ROOT / "tests" / "corpusgen.py"
    spec = importlib.util.spec_from_file_location("bench_corpusgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- hirep ----------------------------------------------------------------

# Skeleton weights per role; the target and the near sources share the
# mixture loosely, the prediction dumps lean towards aggregates.
_HIREP_WEIGHTS = {
    "target": [6, 5, 4, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1],
    "near1": [5, 5, 4, 4, 3, 3, 2, 2, 2, 2, 2, 2, 2, 1, 2, 2, 1, 1, 1, 1, 1, 1, 2, 1],
    "near2": [3, 3, 3, 2, 2, 4, 4, 3, 3, 1, 1, 1, 3, 3, 3, 1, 2, 2, 2, 1, 1, 2, 1, 2],
    "pred_before": [8, 6, 5, 4, 4, 2, 2, 3, 1, 1, 1, 1, 1, 1, 3, 2, 1, 1, 2, 1, 1, 1, 1, 1],
    "pred_after": [6, 6, 5, 5, 4, 3, 3, 3, 2, 1, 2, 2, 1, 1, 3, 2, 1, 1, 2, 1, 2, 1, 1, 1],
}


def hirep_records(rng: random.Random, cg, role: str, n: int) -> list[tuple]:
    if role == "far":
        skeletons, weights = cg.FAR_SKELETONS, [1] * len(cg.FAR_SKELETONS)
    else:
        skeletons, weights = cg.SKELETONS, _HIREP_WEIGHTS[role]
    chosen = []
    while len(chosen) < n:  # whole shuffled decks keep the mixture exact
        deck = [s for s, w in zip(skeletons, weights) for _ in range(w)]
        rng.shuffle(deck)
        chosen += deck
    records = []
    for skeleton in chosen[:n]:
        template, patterns = SKELETON_EXPECTED[skeleton]
        records.append((cg.make_query(rng, skeleton=skeleton), template, patterns))
    return records


# -- fragment composer (lorep, and the valid rows of preds) ----------------


@dataclass(frozen=True)
class Shape:
    """Integer weights of one corpus role's query shapes; flags are
    percentages."""

    joins: list[int]    # 0..3 joins
    conds: list[int]    # 0..4 WHERE conjuncts
    items: list[int]    # 1..5 select items
    group: int          # % with GROUP BY
    order: int          # % with ORDER BY
    limit: int          # % with LIMIT
    sub: int            # % of conjuncts that are IN subqueries
    or_: int            # % of connectives that are OR
    kinds: list[int]    # select item kinds, in _ITEM_KINDS order


_ITEM_KINDS = ("col", "sum", "agg", "count_star", "count_col", "count_distinct",
               "cast", "cast_ratio", "arith", "case", "iif")

LOREP_SHAPES = {
    "target": Shape([3, 4, 2, 1], [1, 3, 3, 2, 1], [2, 3, 3, 2, 1], 40, 50, 40, 20, 30,
                    [6, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1]),
    "near1": Shape([3, 4, 2, 1], [1, 3, 3, 2, 1], [2, 3, 3, 2, 1], 45, 45, 40, 22, 30,
                   [6, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1]),
    "near2": Shape([4, 3, 2, 1], [2, 3, 2, 2, 1], [3, 3, 2, 2, 1], 30, 60, 50, 15, 40,
                   [5, 2, 3, 2, 2, 1, 2, 1, 1, 1, 1]),
    "far": Shape([1, 2, 3, 3], [1, 1, 2, 3, 3], [1, 2, 2, 3, 3], 70, 30, 20, 45, 10,
                 [3, 1, 1, 1, 2, 2, 2, 3, 2, 3, 3]),
    "pred_before": Shape([4, 3, 2, 1], [1, 3, 3, 2, 1], [2, 3, 3, 2, 1], 50, 50, 50, 20, 30,
                         [5, 4, 2, 3, 1, 1, 1, 1, 1, 1, 1]),
    "pred_after": Shape([3, 4, 2, 1], [1, 3, 3, 2, 1], [2, 3, 3, 2, 1], 45, 50, 45, 20, 30,
                        [6, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1]),
}

# Prediction dumps hold shorter queries than the lorep corpora.
PREDS_SHAPES = {
    "target": Shape([5, 3, 1, 0], [2, 4, 2, 1, 0], [3, 4, 2, 1, 0], 40, 40, 40, 15, 30,
                    [6, 3, 2, 3, 1, 1, 1, 1, 1, 1, 1]),
    "train": Shape([5, 3, 1, 0], [2, 4, 2, 1, 0], [3, 4, 2, 1, 0], 45, 40, 40, 12, 30,
                   [6, 3, 2, 3, 1, 1, 1, 1, 1, 1, 1]),
    "pred_before": Shape([6, 3, 1, 0], [3, 4, 2, 1, 0], [4, 4, 2, 0, 0], 50, 50, 50, 10, 30,
                         [5, 4, 2, 3, 1, 1, 1, 1, 1, 1, 1]),
    "pred_after": Shape([5, 3, 1, 0], [2, 4, 2, 1, 0], [3, 4, 2, 1, 0], 45, 45, 45, 12, 30,
                        [6, 3, 2, 3, 1, 1, 1, 1, 1, 1, 1]),
}


class Composer:
    """Builds queries of one shape as SQL text and expected template tokens
    at once.

    Identifiers (tab_N, col_N, aN, out_N) and literals are schema leaves
    and never reach the template; every keyword, operator, comma and
    parenthesis does, in source order. Shape decisions are dealt from
    shuffled decks that hold each choice in proportion to its weight, so
    a file's mix of shapes, and with it the work it costs, barely moves
    from seed to seed; only their order and the names do.
    """

    def __init__(self, rng: random.Random, shape: Shape):
        self.rng = rng
        self.shape = shape
        self._decks: dict[str, list] = {}
        self.patterns: set[str] = set()

    def deal(self, key: str, weights, values=None):
        cards = self._decks.get(key)
        if not cards:
            values = range(len(weights)) if values is None else values
            cards = [v for v, w in zip(values, weights) for _ in range(w)]
            self.rng.shuffle(cards)
            self._decks[key] = cards
        return cards.pop()

    def _flag(self, key: str, percent: int) -> bool:
        return self.deal(key, (percent, 100 - percent), (True, False))

    def _col(self, aliases) -> str:
        name = f"col_{self.rng.randrange(400)}"
        if aliases and self.rng.random() < 0.6:
            return f"{self.rng.choice(aliases)}.{name}"
        return name

    def _num(self) -> str:
        return str(self.rng.randrange(1, 5000))

    def _str(self) -> str:
        return f"'v{self.rng.randrange(10000)}'"

    def _item(self, aliases) -> tuple[str, list[str], str]:
        """(sql, template, role) of one select item; role is "col", "sum"
        or "other", which is what the SUM patterns look at."""
        kind = self.deal("item", self.shape.kinds, _ITEM_KINDS)
        col = self._col(aliases)
        if kind == "col":
            sql, tpl, role = col, [], "col"
        elif kind == "sum":
            sql, tpl, role = f"SUM({col})", ["SUM", "(", ")"], "sum"
        elif kind == "agg":
            fn = self.deal("agg", (1, 1, 1), ("AVG", "MIN", "MAX"))
            sql, tpl, role = f"{fn}({col})", [fn, "(", ")"], "other"
        elif kind == "count_star":
            self.patterns.add("count_star")
            sql, tpl, role = "COUNT(*)", ["COUNT", "(", "*", ")"], "other"
        elif kind == "count_col":
            self.patterns.add("count_attr")
            sql, tpl, role = f"COUNT({col})", ["COUNT", "(", ")"], "other"
        elif kind == "count_distinct":
            self.patterns.add("count_attr")
            sql, tpl, role = f"COUNT(DISTINCT {col})", ["COUNT", "(", "DISTINCT", ")"], "other"
        elif kind == "cast":
            sql, tpl, role = f"CAST({col} AS REAL)", ["CAST", "(", ")"], "other"
        elif kind == "cast_ratio":
            self.patterns.add("count_star")
            sql = f"CAST(SUM({col}) AS REAL) / COUNT(*)"
            tpl = ["CAST", "(", "SUM", "(", ")", ")", "/", "COUNT", "(", "*", ")"]
            role = "other"
        elif kind == "arith":
            op = self.deal("arith", (1, 1, 1), ("*", "+", "-"))
            sql, tpl, role = f"{col} {op} {self._num()}", [op], "other"
        elif kind == "case":
            self.patterns.add("case_when")
            sql = f"CASE WHEN {col} > {self._num()} THEN {self._str()} ELSE {self._str()} END"
            tpl, role = ["CASE", "WHEN", ">", "THEN", "ELSE", "END"], "other"
        else:  # iif
            self.patterns.add("iif")
            sql = f"IIF({col} < {self._num()}, {self._str()}, {self._str()})"
            tpl, role = ["IIF", "(", "<", ",", ",", ")"], "other"
        if self._flag("alias", 25):
            sql += f" AS out_{self.rng.randrange(50)}"
        return sql, tpl, role

    def _cond(self, aliases, depth) -> tuple[str, list[str]]:
        col = self._col(aliases)
        if depth < 2 and self._flag(f"sub{depth}", self.shape.sub):
            self.patterns.add("subquery")
            sub_sql, sub_tpl = self._subquery(depth + 1)
            if self._flag("not_in", 30):
                return f"{col} NOT IN ({sub_sql})", ["NOT", "IN", "("] + sub_tpl + [")"]
            return f"{col} IN ({sub_sql})", ["IN", "("] + sub_tpl + [")"]
        kind = self.deal("cond", [1] * 7)
        if kind == 0:
            op = self.deal("cmp", [1] * 6, ("=", ">", "<", ">=", "<=", "<>"))
            return f"{col} {op} {self._num()}", [op]
        if kind == 1:
            return f"{col} = {self._str()}", ["="]
        if kind == 2:
            return f"{col} LIKE {self._str()}", ["LIKE"]
        if kind == 3:
            return f"{col} BETWEEN {self._num()} AND {self._num()}", ["BETWEEN", "AND"]
        if kind == 4:
            if self._flag("is_null", 50):
                return f"{col} IS NULL", ["IS", "NULL"]
            return f"{col} IS NOT NULL", ["IS", "NOT", "NULL"]
        if kind == 5:
            k = self.deal("in_list", (1, 1, 1), (2, 3, 4))
            values = ", ".join(self._num() for _ in range(k))
            return f"{col} IN ({values})", ["IN", "("] + [","] * (k - 1) + [")"]
        op = self.deal("col_cmp", (1, 1, 1), ("=", "<>", ">"))
        return f"{col} {op} {self._col(aliases)}", [op]

    def _where(self, aliases, count, depth) -> tuple[list[str], list[str]]:
        sql, tpl = [], []
        for i in range(count):
            if i:
                conn = "OR" if self._flag("or", self.shape.or_) else "AND"
                sql.append(conn)
                tpl.append(conn)
            c_sql, c_tpl = self._cond(aliases, depth)
            sql.append(c_sql)
            tpl += c_tpl
        return sql, tpl

    def _subquery(self, depth) -> tuple[str, list[str]]:
        sql = [f"SELECT {self._col([])} FROM tab_{self.rng.randrange(120)}"]
        tpl = ["SELECT", "FROM"]
        count = self.deal(f"sub_conds{depth}", (1, 3, 2))
        if count:
            w_sql, w_tpl = self._where([], count, depth)
            sql += ["WHERE"] + w_sql
            tpl += ["WHERE"] + w_tpl
        return " ".join(sql), tpl

    def query(self) -> tuple[str, str, tuple[str, ...]]:
        """One valid query: (sql, expected template, expected pattern ids)."""
        shape, rng = self.shape, self.rng
        self.patterns = set()
        aliases = ["a0"]
        sql, tpl = ["SELECT"], ["SELECT"]
        if self._flag("distinct", 10):
            sql.append("DISTINCT")
            tpl.append("DISTINCT")
        n_items = 1 + self.deal("items", shape.items)
        n_joins = self.deal("joins", shape.joins)
        aliases += [f"a{j + 1}" for j in range(n_joins)]
        item_sql, roles = [], []
        for i in range(n_items):
            i_sql, i_tpl, role = self._item(aliases)
            if i:
                tpl.append(",")
            item_sql.append(i_sql)
            tpl += i_tpl
            roles.append(role)
        sql.append(", ".join(item_sql))
        sql.append(f"FROM tab_{rng.randrange(120)} a0")
        tpl.append("FROM")
        for j in range(n_joins):
            join = self.deal("join", (1, 1, 1), (("JOIN",), ("LEFT", "JOIN"), ("INNER", "JOIN")))
            left = rng.choice(aliases[: j + 1])
            column = f"col_{rng.randrange(400)}"
            sql.append(f"{' '.join(join)} tab_{rng.randrange(120)} a{j + 1} "
                       f"ON {left}.{column} = a{j + 1}.{column}")
            tpl += list(join) + ["ON", "="]
        n_conds = self.deal("conds", shape.conds)
        if n_conds:
            w_sql, w_tpl = self._where(aliases, n_conds, 0)
            sql += ["WHERE"] + w_sql
            tpl += ["WHERE"] + w_tpl
        if self._flag("group", shape.group):
            keys = [self._col(aliases) for _ in range(self.deal("keys", (2, 1), (1, 2)))]
            sql.append("GROUP BY " + ", ".join(keys))
            tpl += ["GROUP", "BY"] + [","] * (len(keys) - 1)
            if self._flag("having", 30):
                self.patterns.add("count_star")
                sql.append(f"HAVING COUNT(*) > {self._num()}")
                tpl += ["HAVING", "COUNT", "(", "*", ")", ">"]
        if self._flag("order", shape.order):
            if self._flag("order_count", 20):
                self.patterns.add("count_star")
                sql.append("ORDER BY COUNT(*)")
                tpl += ["ORDER", "BY", "COUNT", "(", "*", ")"]
            else:
                sql.append(f"ORDER BY {self._col(aliases)}")
                tpl += ["ORDER", "BY"]
            direction = self.deal("direction", (1, 1, 2), ("", "ASC", "DESC"))
            if direction:
                sql.append(direction)
                tpl.append(direction)
        if self._flag("limit", shape.limit):
            sql.append(f"LIMIT {self._num()}")
            tpl.append("LIMIT")
        # Subquery select lists hold one plain column and no SUM, so only
        # the outer list decides the two SUM patterns.
        first_col = roles.index("col") if "col" in roles else None
        if first_col is not None and "sum" in roles[first_col + 1:]:
            self.patterns.add("attr_comma_sum")
        elif "sum" in roles and "col" not in roles:
            self.patterns.add("bare_sum")
        return " ".join(sql), " ".join(tpl), tuple(sorted(self.patterns))


def lorep_records(rng: random.Random, role: str, n: int) -> list[tuple]:
    composer = Composer(rng, LOREP_SHAPES[role])
    return [composer.query() for _ in range(n)]


# -- preds ----------------------------------------------------------------

_CUT_AFTER = (" FROM ", " WHERE ", " AND ", " OR ", " BY ", " JOIN ", " ON ")


def corrupt(rng: random.Random, sql: str, kind: int) -> str:
    """Make a valid composed query invalid in a way no dialect accepts;
    kind 0..4 picks the defect."""
    if kind == 0:  # truncated right after a word that needs an operand
        cuts = [i + len(word) - 1 for word in _CUT_AFTER
                for i in _find_all(sql, word)]
        return sql[: rng.choice(cuts)]
    head = "SELECT DISTINCT " if sql.startswith("SELECT DISTINCT ") else "SELECT "
    if kind == 1:  # unbalanced "(" before the first select item
        return head + "(" + sql[len(head):]
    if kind == 2:  # trailing comma in the select list
        at = sql.index(" FROM ")
        return sql[:at] + "," + sql[at:]
    if kind == 3:  # misspelled keyword
        if rng.random() < 0.5:
            return rng.choice(("SELCT", "SLECT", "SELET")) + sql[len("SELECT"):]
        at = sql.index(" FROM ")
        return sql[:at] + " FORM" + sql[at + len(" FROM"):]
    return sql + f" FROM tab_{rng.randrange(120)}"  # tokens after the end


def _find_all(text: str, word: str) -> list[int]:
    out, at = [], text.find(word)
    while at >= 0:
        out.append(at)
        at = text.find(word, at + 1)
    return out


def preds_records(rng: random.Random, role: str, n: int,
                  base: list[tuple] | None = None) -> list[tuple]:
    """A prediction dump of n rows over n/2 distinct SQL strings, each in
    two rows at shuffled positions, so half of the rows repeat an earlier
    string exactly. A fifth of the distinct strings are malformed. With a
    base dump (the "before" side), the rows of a random half of its
    distinct strings keep them, as a second model run over the same
    questions would, and the rows of the other half get fresh strings."""
    composer = Composer(rng, PREDS_SHAPES[role])
    n_distinct = n // 2

    def fresh(k: int) -> list[tuple]:
        bad = set(rng.sample(range(k), round(k / 5)))
        out = []
        for i in range(k):
            sql, template, patterns = composer.query()
            if i in bad:
                out.append((corrupt(rng, sql, composer.deal("corrupt", [1] * 5)), None, ()))
            else:
                out.append((sql, template, patterns))
        return out

    if base is None:
        slots = [i // 2 for i in range(2 * n_distinct)]
        rng.shuffle(slots)
        strings = fresh(n_distinct)
        return [strings[i] for i in slots]
    distinct = list(dict.fromkeys(base))
    replaced = rng.sample(range(len(distinct)), len(distinct) // 2)
    new = dict(zip((distinct[i] for i in replaced), fresh(len(replaced))))
    return [new.get(record, record) for record in base]


# -- workloads --------------------------------------------------------------

# Role -> file name per workload. The CLI commands in run.py refer to roles.
FILES = {
    "hirep": {"target": "target.json", "near1": "near1.json", "near2": "near2.json",
              "far": "far.json", "pred_before": "pred_before.json",
              "pred_after": "pred_after.json"},
    "lorep": {"target": "target.jsonl", "near1": "near1.jsonl", "near2": "near2.jsonl",
              "far": "far.jsonl", "pred_before": "pred_before.jsonl",
              "pred_after": "pred_after.jsonl"},
    "preds": {"target": "target.csv", "train": "train.csv",
              "pred_before": "pred_before.csv", "pred_after": "pred_after.csv"},
}


def generate(workload: str, seed: int) -> dict[str, list[tuple]]:
    """role -> [(sql, expected template or None, expected pattern ids)]."""
    rng = random.Random(f"{workload}:{seed}")
    n = SIZES[workload]
    cg = load_corpusgen() if workload == "hirep" else None
    out: dict[str, list[tuple]] = {}
    for role in FILES[workload]:
        if workload == "hirep":
            out[role] = hirep_records(rng, cg, role, n)
        elif workload == "lorep":
            out[role] = lorep_records(rng, role, n)
        else:
            base = out["pred_before"] if role == "pred_after" else None
            out[role] = preds_records(rng, role, n, base)
    return out


def write_workload(workload: str, seed: int, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    data = generate(workload, seed)
    for role, records in data.items():
        path = out_dir / FILES[workload][role]
        if workload == "hirep":
            rows = [{"question": f"q{i}", "sql": sql, "db_id": f"db{i % 17}"}
                    for i, (sql, _, _) in enumerate(records)]
            path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
        elif workload == "lorep":
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                for i, (sql, _, _) in enumerate(records):
                    fh.write(json.dumps({"question": f"q{i}", "sql": sql}) + "\n")
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["question_id", "db_id", "sql"])
                for i, (sql, _, _) in enumerate(records):
                    writer.writerow([i, f"db{i % 11}", sql])
    expected = {"files": {role: FILES[workload][role] for role in data},
                "records": {role: [list(r) for r in records]
                            for role, records in data.items()}}
    (out_dir / "expected.json").write_text(
        json.dumps(expected, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    write_workload(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
