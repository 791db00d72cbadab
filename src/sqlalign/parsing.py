"""Tokenizer and parser for the SELECT dialect found in cross-domain
text-to-SQL corpora (SQLite flavoured, plus the common PostgreSQL-isms such
as ILIKE, EXTRACT and INTERVAL literals).

The parser builds an ordered tree in which every token carries exactly one
of two roles:

* ``STRUCTURAL`` - keywords, operators, commas, parentheses and ``*``;
  these survive template derivation.
* ``SCHEMA`` - identifiers, aliases, literals and parameter markers (plus
  the ``AS type`` annotation inside CAST, which is dropped together with
  the operand's leaf tokens); these are removed by template derivation.

Joining all token texts of a tree in order reproduces the
whitespace-normalized query text (see ``normalize_sql``). Comments and
trailing semicolons are stripped before parsing. Anything the grammar does
not cover raises ``ParseError`` rather than producing a partial tree.

All types here are immutable after construction; ``parse_sql`` is a pure
function and safe to call concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

from .errors import ParseError

# Token kinds.
WORD = "word"
NUMBER = "number"
STRING = "string"
QIDENT = "qident"
OP = "op"
LPAREN = "lparen"
RPAREN = "rparen"
COMMA = "comma"
DOT = "dot"
PARAM = "param"
SEMI = "semi"
END = "end"  # the sentinel parse_sql puts after the last source token

# Token roles.
STRUCTURAL = "structural"
SCHEMA = "schema"


@dataclass(frozen=True)
class Token:
    """One source token. ``upper`` is a word's text uppercased once, at
    construction, and any other token's text as is: keywords are matched
    and written into templates in this form."""

    kind: str
    text: str
    pos: int
    upper: str


@dataclass
class Node:
    """A parse-tree node: either an internal node (children, no token) or a
    token node (token + role, no children)."""

    label: str
    children: list["Node"] = field(default_factory=list)
    token: Token | None = None
    role: str | None = None

    def walk(self) -> Iterator["Node"]:
        """Every node in pre-order. The walk keeps its own stack, so a
        long operator chain (a deep left-nested tree) cannot exhaust the
        interpreter's."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find_all(self, label: str) -> Iterator["Node"]:
        """Every node labelled ``label``, in pre-order. The first call
        indexes the nodes below this one by label in one walk and caches
        the index on the node, so later calls are lookups; trees are not
        changed after parsing. The node stays out of its own index, so
        the cache makes no reference cycle."""
        index = self.__dict__.get("_label_index")
        if index is None:
            index = {}
            below = self.walk()
            next(below)
            for node in below:
                index.setdefault(node.label, []).append(node)
            self._label_index = index
        found = index.get(label, ())
        return chain((self,), found) if self.label == label else iter(found)

    def token_nodes(self) -> Iterator["Node"]:
        return (n for n in self.walk() if n.token is not None)

    def serialize(self) -> str:
        """All token texts in source order, single-space separated."""
        return " ".join(n.token.text for n in self.token_nodes())


# The tree returned by parse_sql is just its root node.
SyntaxTree = Node


# One alternative per token kind, named after it; the first alternative
# that matches wins, so "--" starts a comment before it is two minus signs.
# A quoted literal ends at the first quote that is not doubled: the (?!')
# and (?!") guards stop the regex from backtracking to an earlier, shorter
# literal when no such quote exists.
_TOKEN_RE = re.compile(r"""
    (?P<skip> \s+ | --[^\n]* | /\*.*?\*/ )
  | (?P<string> '[^']*(?:''[^']*)*'(?!') )
  | (?P<qident> "[^"]*(?:""[^"]*)*"(?!") | `[^`]*` | \[[^\]]*\] )
  | (?P<number> (?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)? )
  | (?P<word> [A-Za-z_][A-Za-z0-9_$]* )
  | (?P<dot> \. ) | (?P<comma> , ) | (?P<lparen> \( ) | (?P<rparen> \) ) | (?P<semi> ; )
  | (?P<param> \? | [:@][A-Za-z_][A-Za-z0-9_$]* )
  | (?P<op> <= | >= | <> | != | \|\| | == | [=<>+\-*%~] | /(?!\*) )
""", re.VERBOSE | re.DOTALL)

# What an opening character that no alternative matched leaves open.
_UNTERMINATED = {"'": "string literal", '"': "quoted identifier",
                 "`": "quoted identifier", "[": "bracketed identifier",
                 "/": "block comment"}


def tokenize(text: str) -> list[Token]:
    """Split SQL text into tokens, dropping comments and whitespace."""
    toks: list[Token] = []
    pos, end = 0, len(text)
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            c = text[pos]
            if c in _UNTERMINATED:
                raise ParseError(f"unterminated {_UNTERMINATED[c]}", pos)
            raise ParseError(f"unexpected character {c!r}", pos)
        kind = m.lastgroup
        if kind != "skip":
            tok = m.group()
            toks.append(Token(kind, tok, pos, tok.upper() if kind == WORD else tok))
        pos = m.end()
    return toks


def _strip_trailing_semis(toks: list[Token]) -> list[Token]:
    end = len(toks)
    while end > 0 and toks[end - 1].kind == SEMI:
        end -= 1
    return toks[:end]


def normalize_sql(text: str) -> str:
    """The whitespace-normalized form of a query: its tokens (comments and
    trailing semicolons removed) joined by single spaces. Serializing a
    parse tree reproduces exactly this string."""
    return " ".join(t.text for t in _strip_trailing_semis(tokenize(text)))


# Words that can never begin an expression or name a table/alias.
_RESERVED_STOP = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "AND", "OR", "ON", "AS", "UNION", "INTERSECT", "EXCEPT",
    "JOIN", "INNER", "OUTER", "CROSS", "NATURAL", "USING", "WHEN", "THEN",
    "ELSE", "END", "ASC", "DESC", "IS", "IN", "BETWEEN", "LIKE", "ILIKE",
    "GLOB", "ESCAPE", "DISTINCT", "ALL",
})

# Words that terminate an implicit (AS-less) alias position.
_NON_ALIAS_WORDS = _RESERVED_STOP | frozenset({
    "LEFT", "RIGHT", "FULL", "NOT", "COLLATE", "NULLS", "FILTER", "OVER",
    "WINDOW", "MATCH", "REGEXP", "FETCH", "SET",
})

_CONST_WORDS = frozenset({
    "NULL", "TRUE", "FALSE", "CURRENT_DATE", "CURRENT_TIME",
    "CURRENT_TIMESTAMP",
})

_JOIN_WORDS = frozenset({"JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS", "NATURAL"})

_INTERVAL_UNITS = frozenset({
    "YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "SECOND", "WEEK", "QUARTER",
})

_COMPARE_OPS = frozenset({"=", "==", "<", ">", "<=", ">=", "<>", "!="})

# How deeply statements and expressions may nest: each one inside another
# is one level deeper. The parser counts the levels itself, so whether a
# query parses does not depend on how deep the caller's stack already is.
# Chains of prefix operators (NOT NOT x, - - x) are parsed by loops and do
# not count.
MAX_NESTING = 32


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens  # ends with the END sentinel
        self.i = 0
        self.depth = 0  # open nesting levels, at most MAX_NESTING

    # -- primitives ---------------------------------------------------

    def _peek(self, k: int = 0) -> Token:
        return self.toks[self.i + k]

    def _error(self, message: str) -> None:
        tok = self._peek()
        if tok.kind == END:
            raise ParseError(message, tok.pos)
        raise ParseError(f"{message}, found {tok.text!r}", tok.pos)

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _at(self, kind: str) -> bool:
        return self._peek().kind == kind

    def _at_op(self, *texts: str) -> bool:
        t = self._peek()
        return t.kind == OP and t.text in texts

    def _at_word(self, *uppers: str) -> bool:
        t = self._peek()
        return t.kind == WORD and t.upper in uppers

    def _at_name(self, stop: frozenset[str] = frozenset()) -> bool:
        """At a quoted identifier or at a word outside ``stop``."""
        t = self._peek()
        return t.kind == QIDENT or (t.kind == WORD and t.upper not in stop)

    def _enter(self) -> None:
        """Open one nesting level; the caller closes it by decrementing
        ``depth`` once its node is built."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("query nests too deeply", self._peek().pos)

    def _struct(self) -> Node:
        return Node("tok", token=self._advance(), role=STRUCTURAL)

    def _schema(self) -> Node:
        return Node("tok", token=self._advance(), role=SCHEMA)

    def _kw(self, *expected: str) -> Node:
        if not self._at_word(*expected):
            self._error(f"expected {' or '.join(expected)}")
        return self._struct()

    def _punct(self, kind: str, what: str) -> Node:
        if not self._at(kind):
            self._error(f"expected {what}")
        return self._struct()

    def _name(self, message: str) -> Node:
        if not self._at_name():
            self._error(message)
        return self._schema()

    def _comma_list(self, ch: list[Node], item) -> list[Node]:
        """Append ``item (, item)*`` to ch."""
        ch.append(item())
        while self._at(COMMA):
            ch.append(self._struct())
            ch.append(item())
        return ch

    def _subquery_ahead(self, nested: bool) -> bool:
        """At '(' followed by SELECT or WITH or, when ``nested``, by
        another '('."""
        nxt = self._peek(1)
        return ((nested and nxt.kind == LPAREN)
                or (nxt.kind == WORD and nxt.upper in ("SELECT", "WITH")))

    def _subquery(self, label: str = "subquery") -> Node:
        """``( select_stmt )`` as one node."""
        return Node(label, [self._struct(), self._select_stmt(),
                            self._punct(RPAREN, "')'")])

    # -- statements ---------------------------------------------------

    def parse(self) -> Node:
        stmt = self._select_stmt()
        if not self._at(END):
            self._error("unexpected token after end of query")
        return Node("query", [stmt])

    def _select_stmt(self) -> Node:
        self._enter()
        ch = []
        if self._at_word("WITH"):
            ch.append(self._with_clause())
        ch.append(self._compound_select())
        if self._at_word("ORDER"):
            ch.append(self._order_clause())
        if self._at_word("LIMIT"):
            ch.append(self._limit_clause())
        self.depth -= 1
        return Node("select_stmt", ch)

    def _with_clause(self) -> Node:
        ch = [self._kw("WITH")]
        if self._at_word("RECURSIVE"):
            ch.append(self._struct())
        return Node("with", self._comma_list(ch, self._cte))

    def _cte(self) -> Node:
        if not self._at_name(_RESERVED_STOP):
            self._error("expected common-table-expression name")
        ch = [self._schema()]
        if self._at(LPAREN):  # optional column list: drop with the names
            ch.append(self._schema())
            while not self._at(RPAREN):
                if self._at_name() or self._at(COMMA):
                    ch.append(self._schema())
                else:
                    self._error("expected column name in CTE column list")
            ch.append(self._schema())
        ch.append(self._kw("AS"))
        if not self._at(LPAREN):
            self._error("expected '(' after AS")
        ch.append(self._subquery())
        return Node("cte", ch)

    def _compound_select(self) -> Node:
        parts = [self._select_core_or_paren()]
        while self._at_word("UNION", "INTERSECT", "EXCEPT"):
            op = [self._struct()]
            if self._at_word("ALL", "DISTINCT"):
                op.append(self._struct())
            parts.append(Node("setop_op", op))
            parts.append(self._select_core_or_paren())
        if len(parts) == 1:
            return parts[0]
        return Node("setop", parts)

    def _select_core_or_paren(self) -> Node:
        if self._at(LPAREN):
            if self._subquery_ahead(nested=True):
                return self._subquery("paren_select")
            self._error("expected SELECT")
        return self._select_core()

    def _select_core(self) -> Node:
        ch = [self._kw("SELECT")]
        if self._at_word("DISTINCT", "ALL"):
            ch.append(self._struct())
        ch.append(self._select_list())
        if self._at_word("FROM"):
            ch.append(self._kw("FROM"))
            ch.append(self._from_clause())
        if self._at_word("WHERE"):
            ch.append(self._kw("WHERE"))
            ch.append(self._expr())
        if self._at_word("GROUP"):
            ch.append(self._kw("GROUP"))
            ch.append(self._kw("BY"))
            ch.append(self._expr_list())
        if self._at_word("HAVING"):
            ch.append(self._kw("HAVING"))
            ch.append(self._expr())
        return Node("select", ch)

    def _select_list(self) -> Node:
        return Node("select_list", self._comma_list([], self._select_item))

    def _select_item(self) -> Node:
        if self._at_op("*"):
            return Node("select_item", [Node("star", [self._struct()])])
        # qualified star: t.* or db.t.*
        if self._at_name() and self._qualified_star_ahead():
            ch = [self._schema()]
            while self._at(DOT):
                ch.append(self._schema())
                if self._at_op("*"):
                    ch.append(self._struct())
                    break
                ch.append(self._schema())
            return Node("select_item", [Node("star", ch)])
        return Node("select_item", self._optional_alias([self._expr()]))

    def _qualified_star_ahead(self) -> bool:
        k = 0
        while self._peek(k).kind in (WORD, QIDENT) and self._peek(k + 1).kind == DOT:
            if self._peek(k + 2).kind == OP and self._peek(k + 2).text == "*":
                return True
            k += 2
        return False

    def _alias_ahead(self) -> bool:
        t = self._peek()
        if t.kind in (QIDENT, STRING):
            return True
        return t.kind == WORD and t.upper not in _NON_ALIAS_WORDS

    def _optional_alias(self, ch: list[Node]) -> list[Node]:
        """Append ``[AS] alias`` to ch when present."""
        if self._at_word("AS"):
            ch.append(self._schema())  # alias AS drops with the alias
            if not self._alias_ahead():
                self._error("expected alias name")
            ch.append(self._schema())
        elif self._alias_ahead():
            ch.append(self._schema())
        return ch

    # -- FROM ----------------------------------------------------------

    def _from_clause(self) -> Node:
        ch = [self._table_or_subquery()]
        while True:
            if self._at(COMMA):
                ch.append(self._struct())
                ch.append(self._table_or_subquery())
                continue
            if self._at_word(*_JOIN_WORDS):
                op = []
                while self._at_word("INNER", "LEFT", "RIGHT", "FULL", "CROSS",
                                    "NATURAL", "OUTER"):
                    op.append(self._struct())
                op.append(self._kw("JOIN"))
                ch.append(Node("join_op", op))
                ch.append(self._table_or_subquery())
                if self._at_word("ON"):
                    ch.append(self._kw("ON"))
                    ch.append(self._expr())
                elif self._at_word("USING"):
                    ch.append(self._kw("USING"))
                    ch.append(self._using_cols())
                continue
            break
        return Node("from", ch)

    def _table_or_subquery(self) -> Node:
        if self._at(LPAREN):
            if not self._subquery_ahead(nested=True):
                self._error("expected SELECT after '(' in FROM")
            ch = [self._subquery()]
        else:
            if not self._at_name(_NON_ALIAS_WORDS):
                self._error("expected table name")
            name = [self._schema()]
            while self._at(DOT):
                name.append(self._schema())
                name.append(self._name("expected identifier after '.'"))
            ch = [Node("table", name)]
        return Node("table_ref", self._optional_alias(ch))

    def _using_cols(self) -> Node:
        ch = self._comma_list([self._punct(LPAREN, "'('")],
                              lambda: self._name("expected column name in USING"))
        ch.append(self._punct(RPAREN, "')'"))
        return Node("using_cols", ch)

    # -- trailing clauses ----------------------------------------------

    def _order_clause(self) -> Node:
        ch = [self._kw("ORDER"), self._kw("BY")]
        while True:
            ch.append(self._expr())
            if self._at_word("ASC", "DESC"):
                ch.append(self._struct())
            if self._at_word("NULLS"):
                ch.append(self._struct())
                ch.append(self._kw("FIRST", "LAST"))
            if self._at(COMMA):
                ch.append(self._struct())
                continue
            break
        return Node("order_by", ch)

    def _limit_clause(self) -> Node:
        ch = [self._kw("LIMIT"), self._expr()]
        if self._at_word("OFFSET"):
            ch.append(self._struct())
            ch.append(self._expr())
        elif self._at(COMMA):
            ch.append(self._struct())
            ch.append(self._expr())
        return Node("limit", ch)

    def _expr_list(self) -> Node:
        return Node("expr_list", self._comma_list([], self._expr))

    def _paren_list(self) -> Node:
        ch = self._comma_list([self._struct()], self._expr)
        ch.append(self._punct(RPAREN, "')'"))
        return Node("paren", ch)

    # -- expressions -----------------------------------------------------

    def _expr(self) -> Node:
        self._enter()
        node = self._and_expr()
        while self._at_word("OR"):
            node = Node("binary", [node, self._struct(), self._and_expr()])
        self.depth -= 1
        return node

    def _and_expr(self) -> Node:
        node = self._not_expr()
        while self._at_word("AND"):
            node = Node("binary", [node, self._struct(), self._not_expr()])
        return node

    @staticmethod
    def _prefixed(ops: list[Node], node: Node) -> Node:
        """Wrap node in one unary node per prefix operator, the last
        operator innermost."""
        for op in reversed(ops):
            node = Node("unary", [op, node])
        return node

    def _not_expr(self) -> Node:
        nots = []
        while self._at_word("NOT"):
            nots.append(self._struct())
        return self._prefixed(nots, self._predicate())

    def _predicate(self) -> Node:
        node = self._concat()
        while True:
            t = self._peek()
            if t.kind == OP and t.text in _COMPARE_OPS:
                node = Node("binary", [node, self._struct(), self._concat()])
                continue
            if self._at_word("IS"):
                ch = [node, self._struct()]
                if self._at_word("NOT"):
                    ch.append(self._struct())
                if self._at_word("DISTINCT"):
                    ch.append(self._struct())
                    ch.append(self._kw("FROM"))
                ch.append(self._concat())
                node = Node("binary", ch)
                continue
            neg = None
            if self._at_word("NOT"):
                nxt = self._peek(1)
                if nxt.kind == WORD and nxt.upper in (
                        "BETWEEN", "IN", "LIKE", "ILIKE", "GLOB", "REGEXP", "MATCH"):
                    neg = self._struct()
                else:
                    break
            if self._at_word("BETWEEN"):
                ch = [node] + ([neg] if neg else [])
                ch += [self._struct(), self._concat(), self._kw("AND"), self._concat()]
                node = Node("between", ch)
                continue
            if self._at_word("IN"):
                ch = [node] + ([neg] if neg else []) + [self._struct(), self._in_rhs()]
                node = Node("in_expr", ch)
                continue
            if self._at_word("LIKE", "ILIKE", "GLOB", "REGEXP", "MATCH"):
                ch = [node] + ([neg] if neg else []) + [self._struct(), self._concat()]
                if self._at_word("ESCAPE"):
                    ch.append(self._struct())
                    ch.append(self._concat())
                node = Node("binary", ch)
                continue
            if neg is not None:  # solitary NOT after an operand
                self._error("expected BETWEEN, IN or LIKE after NOT")
            break
        return node

    def _in_rhs(self) -> Node:
        if not self._at(LPAREN):
            self._error("expected '(' after IN")
        if self._subquery_ahead(nested=True):
            return self._subquery()
        return self._paren_list()

    def _concat(self) -> Node:
        node = self._additive()
        while self._at_op("||"):
            node = Node("binary", [node, self._struct(), self._additive()])
        return node

    def _additive(self) -> Node:
        node = self._multiplicative()
        while self._at_op("+", "-"):
            node = Node("binary", [node, self._struct(), self._multiplicative()])
        return node

    def _multiplicative(self) -> Node:
        node = self._unary()
        while self._at_op("*", "/", "%"):
            node = Node("binary", [node, self._struct(), self._unary()])
        return node

    def _unary(self) -> Node:
        signs = []
        while self._at_op("+", "-", "~"):
            signs.append(self._struct())
        node = self._primary()
        while self._at_word("COLLATE"):  # binds before the signs wrap it
            node = Node("collate", [node, self._struct(),
                                    self._name("expected collation name")])
        return self._prefixed(signs, node)

    def _primary(self) -> Node:
        t = self._peek()
        if t.kind == END:
            self._error("unexpected end of query")
        if t.kind in (NUMBER, STRING, PARAM):
            return Node("lit", [self._schema()])
        if t.kind == LPAREN:
            if self._subquery_ahead(nested=False):
                return self._subquery()
            return self._paren_list()
        if t.kind == OP and t.text == "*":
            return Node("star", [self._struct()])
        if t.kind == QIDENT:
            return self._column_ref()
        if t.kind != WORD:
            self._error("expected expression")

        up = t.upper
        follows_paren = self._peek(1).kind == LPAREN
        if up == "CASE":
            return self._case_expr()
        if up == "CAST" and follows_paren:
            return self._cast_expr()
        if up == "EXISTS" and follows_paren:
            return Node("exists", [self._struct(), self._subquery()])
        if up == "EXTRACT" and follows_paren:
            return self._extract_expr()
        if up == "INTERVAL" and self._peek(1).kind in (STRING, NUMBER):
            return self._interval_expr()
        if up in _CONST_WORDS:
            return Node("const", [self._struct()])
        if up in _RESERVED_STOP:
            self._error("expected expression")
        if follows_paren:
            return self._func_call()
        return self._column_ref()

    def _case_expr(self) -> Node:
        ch = [self._kw("CASE")]
        if not self._at_word("WHEN"):
            ch.append(self._expr())
        if not self._at_word("WHEN"):
            self._error("expected WHEN in CASE expression")
        while self._at_word("WHEN"):
            ch += [self._struct(), self._expr(), self._kw("THEN"), self._expr()]
        if self._at_word("ELSE"):
            ch += [self._struct(), self._expr()]
        ch.append(self._kw("END"))
        return Node("case", ch)

    def _cast_expr(self) -> Node:
        ch = [self._kw("CAST"), self._punct(LPAREN, "'('"), self._expr()]
        if not self._at_word("AS"):
            self._error("expected AS in CAST")
        ch.append(self._schema())  # AS drops together with the type name
        ch.append(self._type_name())
        ch.append(self._punct(RPAREN, "')'"))
        return Node("cast", ch)

    def _type_name(self) -> Node:
        if not self._at(WORD):
            self._error("expected type name")
        ch = [self._schema()]
        while self._at(WORD):  # multi-word types: DOUBLE PRECISION, UNSIGNED BIG INT
            ch.append(self._schema())
        if self._at(LPAREN):  # type parameters: VARCHAR(20), DECIMAL(10, 2)
            ch.append(self._schema())
            while self._at(NUMBER) or self._at(COMMA) or self._at(WORD):
                ch.append(self._schema())
            if not self._at(RPAREN):
                self._error("expected ')' after type parameters")
            ch.append(self._schema())
        return Node("type_name", ch)

    def _extract_expr(self) -> Node:
        ch = [self._kw("EXTRACT"), self._punct(LPAREN, "'('")]
        if not self._at(WORD):
            self._error("expected date part in EXTRACT")
        ch.append(self._struct())  # the date part carries shape, keep it
        ch.append(self._kw("FROM"))
        ch.append(self._expr())
        ch.append(self._punct(RPAREN, "')'"))
        return Node("func", ch)

    def _interval_expr(self) -> Node:
        ch = [self._kw("INTERVAL"), self._schema()]
        if self._at_word(*_INTERVAL_UNITS):
            ch.append(self._struct())
        return Node("const", ch)

    def _func_call(self) -> Node:
        ch = [self._struct(), self._punct(LPAREN, "'('")]
        if not self._at(RPAREN):
            if self._at_word("DISTINCT", "ALL"):
                ch.append(self._struct())
            if self._at_op("*"):
                ch.append(Node("star", [self._struct()]))
            else:
                self._comma_list(ch, self._expr)
        ch.append(self._punct(RPAREN, "')'"))
        node = Node("func", ch)
        if self._at_word("FILTER"):
            fch = [node, self._struct(), self._punct(LPAREN, "'('"),
                   self._kw("WHERE"), self._expr(), self._punct(RPAREN, "')'")]
            node = Node("filtered", fch)
        if self._at_word("OVER"):
            node = Node("window", [node, self._over_clause()])
        return node

    def _over_clause(self) -> Node:
        ch = [self._kw("OVER")]
        if self._at(LPAREN):
            ch.append(self._struct())
            if self._at_word("PARTITION"):
                ch.append(self._struct())
                ch.append(self._kw("BY"))
                ch.append(self._expr_list())
            if self._at_word("ORDER"):
                ch.append(self._order_clause())
            if self._at_word("ROWS", "RANGE", "GROUPS"):
                ch.append(self._frame_spec())
            ch.append(self._punct(RPAREN, "')'"))
        else:
            ch.append(self._name("expected window name or '(' after OVER"))
        return Node("over", ch)

    def _frame_spec(self) -> Node:
        ch = [self._struct()]
        if self._at_word("BETWEEN"):
            ch += [self._struct(), self._frame_bound(), self._kw("AND"), self._frame_bound()]
        else:
            ch.append(self._frame_bound())
        return Node("frame", ch)

    def _frame_bound(self) -> Node:
        if self._at_word("UNBOUNDED"):
            return Node("frame_bound", [self._struct(), self._kw("PRECEDING", "FOLLOWING")])
        if self._at_word("CURRENT"):
            return Node("frame_bound", [self._struct(), self._kw("ROW")])
        return Node("frame_bound", [self._expr(), self._kw("PRECEDING", "FOLLOWING")])

    def _column_ref(self) -> Node:
        if not self._at_name(_RESERVED_STOP):
            self._error("expected column reference")
        ch = [self._schema()]
        while self._at(DOT):
            ch.append(self._schema())
            if self._at_op("*"):
                ch.append(self._struct())
                return Node("star", ch)
            ch.append(self._name("expected identifier after '.'"))
        return Node("col", ch)


def parse_sql(text: str) -> SyntaxTree:
    """Parse a SELECT query into a role-tagged syntax tree.

    Every failure is a ParseError: text outside the supported grammar, text
    with no tokens, and nesting deeper than MAX_NESTING levels ("query
    nests too deeply"). A RecursionError, which the explicit limit should
    prevent, is reported the same way. Callers that process whole corpora
    catch it and record the failure.
    """
    toks = _strip_trailing_semis(tokenize(text))
    if not toks:
        raise ParseError("query contains no tokens", 0)
    toks.append(Token(END, "", len(text), ""))
    parser = _Parser(toks)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("query nests too deeply", toks[parser.i].pos) from None
