"""Tokenizer and parser for the SELECT dialect found in cross-domain
text-to-SQL corpora (SQLite flavoured, plus the common PostgreSQL-isms such
as ILIKE, EXTRACT and INTERVAL literals).

The parser builds an ordered tree in which every token is one leaf, in
source order, and carries exactly one of two roles:

* ``STRUCTURAL`` - keywords, operators, commas, parentheses and ``*``;
  these form the structural template.
* ``SCHEMA`` - identifiers, aliases, literals and parameter markers (plus
  the ``AS type`` annotation inside CAST, which is dropped together with
  the operand's leaf tokens); these are left out of it.

The parser only moves forward, so it records the template as it goes:
``_struct``, which makes every structural leaf, appends the index of its
token. The root that ``parse_sql`` returns carries these indices as
``positions`` and the tokens' ``upper`` texts as ``template``. Comments
and trailing semicolons are stripped before parsing. Anything the grammar
does not cover raises ``ParseError`` rather than producing a partial tree.

The parser's path through a query depends only on its shape (see
``shape_key``): queries of one shape have their template tokens at the
same token indices.

Tokens are immutable. A tree is not changed after ``parse_sql`` returns
it, except that ``Node.find_all`` caches an index on the node it is called
on. ``parse_sql`` is a pure function and safe to call concurrently.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterator, NamedTuple

from ._value import Value
from .errors import ParseError
from .keywords import TEMPLATE_OPERATORS

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


class Token(NamedTuple):
    """One source token. ``upper`` is a word's text uppercased once, at
    construction, and any other token's text as is: keywords are matched
    and written into templates in this form.

    A string, quoted identifier or parameter keeps its quote or sigil in
    ``upper``, and numbers and punctuation cannot spell a word, so
    ``upper == "AND"`` (or any keyword) holds only for a word token and
    ``upper == "*"`` only for the operator. The parser relies on this to
    test a token with one lookup on ``upper``."""

    kind: str
    text: str
    pos: int
    upper: str


class Node(Value):
    """A parse-tree node: either an internal node (children, no token) or a
    token node (token + role, no children). The root that ``parse_sql``
    returns also has ``positions``, the token indices of its structural
    leaves, and ``template``, the ``upper`` texts of those tokens.
    Nodes compare by their four fields and are not hashable."""

    _fields = ("label", "children", "token", "role")
    __slots__ = _fields + ("positions", "template", "_label_index", "__weakref__")

    def __init__(self, label: str, children: list[Node] | None = None,
                 token: Token | None = None, role: str | None = None):
        self.label = label
        self.children = [] if children is None else children
        self.token = token
        self.role = role

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
        index = getattr(self, "_label_index", None)
        if index is None:
            # walk() inlined, without the generator: this loop runs once
            # for every node of a tree that a pattern is matched against.
            index = {}
            stack = self.children[::-1]
            while stack:
                node = stack.pop()
                index.setdefault(node.label, []).append(node)
                if node.children:
                    stack.extend(node.children[::-1])
            self._label_index = index
        found = index.get(label, ())
        return chain((self,), found) if self.label == label else iter(found)


# Each match is the whitespace and comments before one token, then the
# token: one alternative per token kind, named after it. Skipping comes
# first and the first alternative that matches wins, so "--" starts a
# comment before it is two minus signs. The next to last alternative,
# ``bad``, takes any character the others do not, so a finditer scan never
# skips text and a ``bad`` match is a tokenizing error; the last matches
# only at the end of the text, after trailing whitespace, and holds no
# token. A quoted literal ends at the first quote that is not doubled: the
# (?!') and (?!") guards stop the regex from backtracking to an earlier,
# shorter literal when no such quote exists.
_TOKEN_RE = re.compile(r"""
    (?: \s+ | --[^\n]* | /\*.*?\*/ )*
    (?: (?P<string> '[^']*(?:''[^']*)*'(?!') )
      | (?P<qident> "[^"]*(?:""[^"]*)*"(?!") | `[^`]*` | \[[^\]]*\] )
      | (?P<number> (?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)? )
      | (?P<word> [A-Za-z_][A-Za-z0-9_$]* )
      | (?P<dot> \. ) | (?P<comma> , ) | (?P<lparen> \( ) | (?P<rparen> \) ) | (?P<semi> ; )
      | (?P<param> \? | [:@][A-Za-z_][A-Za-z0-9_$]* )
      | (?P<op> <= | >= | <> | != | \|\| | == | [=<>+\-*%~] | /(?!\*) )
      | (?P<bad> . )
      | \Z )
""", re.VERBOSE | re.DOTALL)

# What an opening character that no other alternative matched leaves open.
_UNTERMINATED = {"'": "string literal", '"': "quoted identifier",
                 "`": "quoted identifier", "[": "bracketed identifier",
                 "/": "block comment"}

# Builds a Token from one (kind, text, pos, upper) tuple without the
# Python-level call that Token(...) makes; tokenize builds one per token.
_new_token = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Split SQL text into tokens, dropping comments and whitespace."""
    toks: list[Token] = []
    append = toks.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # trailing whitespace and comments
            continue
        tok = m[kind]
        if kind == WORD:
            append(_new_token(Token, (WORD, tok, m.start(kind), tok.upper())))
        elif kind == "bad":
            pos = m.start(kind)
            if tok in _UNTERMINATED:
                raise ParseError(f"unterminated {_UNTERMINATED[tok]}", pos)
            raise ParseError(f"unexpected character {tok!r}", pos)
        else:
            append(_new_token(Token, (kind, tok, m.start(kind), tok)))
    return toks


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

_JOIN_PREFIX = frozenset({"INNER", "LEFT", "RIGHT", "FULL", "CROSS", "NATURAL", "OUTER"})

_SET_OPS = frozenset({"UNION", "INTERSECT", "EXCEPT"})

_INTERVAL_UNITS = frozenset({
    "YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "SECOND", "WEEK", "QUARTER",
})

# Words _primary parses specially (when followed by the right token).
_PRIMARY_WORDS = frozenset({"CASE", "CAST", "EXISTS", "EXTRACT", "INTERVAL"})

_COMPARE_OPS = frozenset({"=", "==", "<", ">", "<=", ">=", "<>", "!="})

# Words that NOT may negate after an operand, and every token that can
# continue a predicate after its first operand.
_NEGATABLE = frozenset({"BETWEEN", "IN", "LIKE", "ILIKE", "GLOB", "REGEXP", "MATCH"})
_PREDICATE_STARTS = _COMPARE_OPS | _NEGATABLE | {"IS", "NOT"}

# Binding levels of the binary operators; a higher level binds tighter.
_LOGICAL_LEVELS = {"OR": 0, "AND": 1}
_ARITH_LEVELS = {"||": 0, "+": 1, "-": 1, "*": 2, "/": 2, "%": 2}

_SIGNS = frozenset({"+", "-", "~"})

# Every text the parser compares a token's ``upper`` with: the operators,
# commas and parentheses of TEMPLATE_OPERATORS, the word sets above and
# the words that parser methods name directly. A test scans this module
# for word literals that are missing here.
SHAPE_VOCABULARY = TEMPLATE_OPERATORS.union(
    _NON_ALIAS_WORDS, _CONST_WORDS, _JOIN_WORDS, _JOIN_PREFIX, _SET_OPS, _INTERVAL_UNITS,
    _PRIMARY_WORDS, _PREDICATE_STARTS, _LOGICAL_LEVELS, _ARITH_LEVELS, _SIGNS,
    {"WITH", "RECURSIVE", "FIRST", "LAST", "PARTITION", "ROWS", "RANGE", "GROUPS",
     "UNBOUNDED", "PRECEDING", "FOLLOWING", "CURRENT", "ROW"})

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
        self.tok = tokens[0]  # always toks[i]
        self.depth = 0  # open nesting levels, at most MAX_NESTING
        self.positions: list[int] = []  # token indices of the structural leaves so far

    # -- primitives ---------------------------------------------------
    # Keyword and operator tests look at ``self.tok.upper`` alone; see
    # Token for why that cannot match a token of another kind.

    def _peek(self, k: int) -> Token:
        """The token k places after the current one."""
        return self.toks[self.i + k]

    def _error(self, message: str) -> None:
        tok = self.tok
        if tok.kind == END:
            raise ParseError(message, tok.pos)
        raise ParseError(f"{message}, found {tok.text!r}", tok.pos)

    def _at_name(self, stop: frozenset[str] = frozenset()) -> bool:
        """At a quoted identifier or at a word outside ``stop``."""
        t = self.tok
        return t.kind == QIDENT or (t.kind == WORD and t.upper not in stop)

    def _enter(self) -> None:
        """Open one nesting level; the caller closes it by decrementing
        ``depth`` once its node is built."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("query nests too deeply", self.tok.pos)

    def _struct(self) -> Node:
        """The current token as a structural leaf, its index added to the
        positions; moves past it. Every structural leaf is made here."""
        tok = self.tok
        self.positions.append(self.i)
        self.i += 1
        self.tok = self.toks[self.i]
        return Node("tok", [], tok, STRUCTURAL)

    def _schema(self) -> Node:
        """The current token as a schema leaf; moves past it."""
        tok = self.tok
        self.i += 1
        self.tok = self.toks[self.i]
        return Node("tok", [], tok, SCHEMA)

    def _kw(self, *expected: str) -> Node:
        if self.tok.upper not in expected:
            self._error(f"expected {' or '.join(expected)}")
        return self._struct()

    def _punct(self, kind: str, what: str) -> Node:
        if self.tok.kind != kind:
            self._error(f"expected {what}")
        return self._struct()

    def _name(self, message: str) -> Node:
        if not self._at_name():
            self._error(message)
        return self._schema()

    def _comma_list(self, ch: list[Node], item) -> list[Node]:
        """Append ``item (, item)*`` to ch."""
        ch.append(item())
        while self.tok.kind == COMMA:
            ch.append(self._struct())
            ch.append(item())
        return ch

    def _subquery_ahead(self, nested: bool) -> bool:
        """At '(' followed by SELECT or WITH or, when ``nested``, by
        another '('."""
        nxt = self._peek(1)
        return (nested and nxt.kind == LPAREN) or nxt.upper in ("SELECT", "WITH")

    def _subquery(self, label: str = "subquery") -> Node:
        """``( select_stmt )`` as one node."""
        return Node(label, [self._struct(), self._select_stmt(),
                            self._punct(RPAREN, "')'")])

    # -- statements ---------------------------------------------------

    def parse(self) -> Node:
        stmt = self._select_stmt()
        if self.tok.kind != END:
            self._error("unexpected token after end of query")
        root = Node("query", [stmt])
        root.positions = positions = tuple(self.positions)
        toks = self.toks
        root.template = tuple([toks[i].upper for i in positions])
        return root

    def _select_stmt(self) -> Node:
        self._enter()
        ch = []
        if self.tok.upper == "WITH":
            ch.append(self._with_clause())
        ch.append(self._compound_select())
        if self.tok.upper == "ORDER":
            ch.append(self._order_clause())
        if self.tok.upper == "LIMIT":
            ch.append(self._limit_clause())
        self.depth -= 1
        return Node("select_stmt", ch)

    def _with_clause(self) -> Node:
        ch = [self._kw("WITH")]
        if self.tok.upper == "RECURSIVE":
            ch.append(self._struct())
        return Node("with", self._comma_list(ch, self._cte))

    def _cte(self) -> Node:
        if not self._at_name(_RESERVED_STOP):
            self._error("expected common-table-expression name")
        ch = [self._schema()]
        if self.tok.kind == LPAREN:  # optional column list: drop with the names
            ch.append(self._schema())
            while self.tok.kind != RPAREN:
                if self._at_name() or self.tok.kind == COMMA:
                    ch.append(self._schema())
                else:
                    self._error("expected column name in CTE column list")
            ch.append(self._schema())
        ch.append(self._kw("AS"))
        if self.tok.kind != LPAREN:
            self._error("expected '(' after AS")
        ch.append(self._subquery())
        return Node("cte", ch)

    def _compound_select(self) -> Node:
        parts = [self._select_core_or_paren()]
        while self.tok.upper in _SET_OPS:
            op = [self._struct()]
            if self.tok.upper in ("ALL", "DISTINCT"):
                op.append(self._struct())
            parts.append(Node("setop_op", op))
            parts.append(self._select_core_or_paren())
        if len(parts) == 1:
            return parts[0]
        return Node("setop", parts)

    def _select_core_or_paren(self) -> Node:
        if self.tok.kind == LPAREN:
            if self._subquery_ahead(nested=True):
                return self._subquery("paren_select")
            self._error("expected SELECT")
        return self._select_core()

    def _select_core(self) -> Node:
        ch = [self._kw("SELECT")]
        if self.tok.upper in ("DISTINCT", "ALL"):
            ch.append(self._struct())
        ch.append(self._select_list())
        if self.tok.upper == "FROM":
            ch.append(self._struct())
            ch.append(self._from_clause())
        if self.tok.upper == "WHERE":
            ch.append(self._struct())
            ch.append(self._expr())
        if self.tok.upper == "GROUP":
            ch.append(self._struct())
            ch.append(self._kw("BY"))
            ch.append(self._expr_list())
        if self.tok.upper == "HAVING":
            ch.append(self._struct())
            ch.append(self._expr())
        return Node("select", ch)

    def _select_list(self) -> Node:
        return Node("select_list", self._comma_list([], self._select_item))

    def _select_item(self) -> Node:
        if self.tok.upper == "*":
            return Node("select_item", [Node("star", [self._struct()])])
        # qualified star: t.* or db.t.*
        if self._qualified_star_ahead():
            ch = [self._schema()]
            while self.tok.kind == DOT:
                ch.append(self._schema())
                if self.tok.upper == "*":
                    ch.append(self._struct())
                    break
                ch.append(self._schema())
            return Node("select_item", [Node("star", ch)])
        return Node("select_item", self._optional_alias([self._expr()]))

    def _qualified_star_ahead(self) -> bool:
        toks, k = self.toks, self.i
        while toks[k].kind in (WORD, QIDENT) and toks[k + 1].kind == DOT:
            if toks[k + 2].upper == "*":
                return True
            k += 2
        return False

    def _alias_ahead(self) -> bool:
        t = self.tok
        if t.kind in (QIDENT, STRING):
            return True
        return t.kind == WORD and t.upper not in _NON_ALIAS_WORDS

    def _optional_alias(self, ch: list[Node]) -> list[Node]:
        """Append ``[AS] alias`` to ch when present."""
        if self.tok.upper == "AS":
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
            if self.tok.kind == COMMA:
                ch.append(self._struct())
                ch.append(self._table_or_subquery())
                continue
            if self.tok.upper in _JOIN_WORDS:
                op = []
                while self.tok.upper in _JOIN_PREFIX:
                    op.append(self._struct())
                op.append(self._kw("JOIN"))
                ch.append(Node("join_op", op))
                ch.append(self._table_or_subquery())
                if self.tok.upper == "ON":
                    ch.append(self._struct())
                    ch.append(self._expr())
                elif self.tok.upper == "USING":
                    ch.append(self._struct())
                    ch.append(self._using_cols())
                continue
            break
        return Node("from", ch)

    def _table_or_subquery(self) -> Node:
        if self.tok.kind == LPAREN:
            if not self._subquery_ahead(nested=True):
                self._error("expected SELECT after '(' in FROM")
            ch = [self._subquery()]
        else:
            if not self._at_name(_NON_ALIAS_WORDS):
                self._error("expected table name")
            name = [self._schema()]
            while self.tok.kind == DOT:
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
            if self.tok.upper in ("ASC", "DESC"):
                ch.append(self._struct())
            if self.tok.upper == "NULLS":
                ch.append(self._struct())
                ch.append(self._kw("FIRST", "LAST"))
            if self.tok.kind == COMMA:
                ch.append(self._struct())
                continue
            break
        return Node("order_by", ch)

    def _limit_clause(self) -> Node:
        ch = [self._kw("LIMIT"), self._expr()]
        if self.tok.upper == "OFFSET" or self.tok.kind == COMMA:
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
    # Binary operators of one level associate to the left; a tighter
    # level's operand is parsed by the recursive call with ``level + 1``.

    def _expr(self) -> Node:
        self._enter()
        node = self._logical(0)
        self.depth -= 1
        return node

    def _logical(self, min_level: int) -> Node:
        """``NOT* predicate`` joined by OR (level 0) and AND (level 1)."""
        if self.tok.upper == "NOT":
            nots = []
            while self.tok.upper == "NOT":
                nots.append(self._struct())
            node = self._prefixed(nots, self._predicate())
        else:
            node = self._predicate()
        while True:
            level = _LOGICAL_LEVELS.get(self.tok.upper)
            if level is None or level < min_level:
                return node
            node = Node("binary", [node, self._struct(), self._logical(level + 1)])

    @staticmethod
    def _prefixed(ops: list[Node], node: Node) -> Node:
        """Wrap node in one unary node per prefix operator, the last
        operator innermost."""
        for op in reversed(ops):
            node = Node("unary", [op, node])
        return node

    def _predicate(self) -> Node:
        node = self._arith(0)
        while self.tok.upper in _PREDICATE_STARTS:
            up = self.tok.upper
            if up in _COMPARE_OPS:
                node = Node("binary", [node, self._struct(), self._arith(0)])
                continue
            if up == "IS":
                ch = [node, self._struct()]
                if self.tok.upper == "NOT":
                    ch.append(self._struct())
                if self.tok.upper == "DISTINCT":
                    ch.append(self._struct())
                    ch.append(self._kw("FROM"))
                ch.append(self._arith(0))
                node = Node("binary", ch)
                continue
            ch = [node]
            if up == "NOT":
                if self._peek(1).upper not in _NEGATABLE:
                    break
                ch.append(self._struct())
                up = self.tok.upper
            if up == "BETWEEN":
                ch += [self._struct(), self._arith(0), self._kw("AND"), self._arith(0)]
                node = Node("between", ch)
            elif up == "IN":
                ch += [self._struct(), self._in_rhs()]
                node = Node("in_expr", ch)
            else:  # LIKE, ILIKE, GLOB, REGEXP or MATCH
                ch += [self._struct(), self._arith(0)]
                if self.tok.upper == "ESCAPE":
                    ch.append(self._struct())
                    ch.append(self._arith(0))
                node = Node("binary", ch)
        return node

    def _in_rhs(self) -> Node:
        if self.tok.kind != LPAREN:
            self._error("expected '(' after IN")
        if self._subquery_ahead(nested=True):
            return self._subquery()
        return self._paren_list()

    def _arith(self, min_level: int) -> Node:
        """Operands joined by || (level 0), + - (level 1) and * / % (2)."""
        node = self._unary()
        while True:
            level = _ARITH_LEVELS.get(self.tok.upper)
            if level is None or level < min_level:
                return node
            node = Node("binary", [node, self._struct(), self._arith(level + 1)])

    def _unary(self) -> Node:
        signs = None
        if self.tok.upper in _SIGNS:
            signs = []
            while self.tok.upper in _SIGNS:
                signs.append(self._struct())
        node = self._primary()
        while self.tok.upper == "COLLATE":  # binds before the signs wrap it
            node = Node("collate", [node, self._struct(),
                                    self._name("expected collation name")])
        return node if signs is None else self._prefixed(signs, node)

    def _primary(self) -> Node:
        t = self.tok
        kind = t.kind
        if kind == WORD:
            up = t.upper
            if up in _PRIMARY_WORDS:
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
            if self._peek(1).kind == LPAREN:
                return self._func_call()
            return self._column_ref()
        if kind in (NUMBER, STRING, PARAM):
            return Node("lit", [self._schema()])
        if kind == LPAREN:
            if self._subquery_ahead(nested=False):
                return self._subquery()
            return self._paren_list()
        if kind == QIDENT:
            return self._column_ref()
        if kind == END:
            self._error("unexpected end of query")
        if t.upper == "*":
            return Node("star", [self._struct()])
        self._error("expected expression")

    def _case_expr(self) -> Node:
        ch = [self._kw("CASE")]
        if self.tok.upper != "WHEN":
            ch.append(self._expr())
        if self.tok.upper != "WHEN":
            self._error("expected WHEN in CASE expression")
        while self.tok.upper == "WHEN":
            ch += [self._struct(), self._expr(), self._kw("THEN"), self._expr()]
        if self.tok.upper == "ELSE":
            ch += [self._struct(), self._expr()]
        ch.append(self._kw("END"))
        return Node("case", ch)

    def _cast_expr(self) -> Node:
        ch = [self._kw("CAST"), self._punct(LPAREN, "'('"), self._expr()]
        if self.tok.upper != "AS":
            self._error("expected AS in CAST")
        ch.append(self._schema())  # AS drops together with the type name
        ch.append(self._type_name())
        ch.append(self._punct(RPAREN, "')'"))
        return Node("cast", ch)

    def _type_name(self) -> Node:
        if self.tok.kind != WORD:
            self._error("expected type name")
        ch = [self._schema()]
        while self.tok.kind == WORD:  # multi-word types: DOUBLE PRECISION, UNSIGNED BIG INT
            ch.append(self._schema())
        if self.tok.kind == LPAREN:  # type parameters: VARCHAR(20), DECIMAL(10, 2)
            ch.append(self._schema())
            while self.tok.kind in (NUMBER, COMMA, WORD):
                ch.append(self._schema())
            if self.tok.kind != RPAREN:
                self._error("expected ')' after type parameters")
            ch.append(self._schema())
        return Node("type_name", ch)

    def _extract_expr(self) -> Node:
        ch = [self._kw("EXTRACT"), self._punct(LPAREN, "'('")]
        if self.tok.kind != WORD:
            self._error("expected date part in EXTRACT")
        ch.append(self._struct())  # the date part carries shape, keep it
        ch.append(self._kw("FROM"))
        ch.append(self._expr())
        ch.append(self._punct(RPAREN, "')'"))
        return Node("func", ch)

    def _interval_expr(self) -> Node:
        ch = [self._kw("INTERVAL"), self._schema()]
        if self.tok.upper in _INTERVAL_UNITS:
            ch.append(self._struct())
        return Node("const", ch)

    def _func_call(self) -> Node:
        ch = [self._struct(), self._punct(LPAREN, "'('")]
        if self.tok.kind != RPAREN:
            if self.tok.upper in ("DISTINCT", "ALL"):
                ch.append(self._struct())
            if self.tok.upper == "*":
                ch.append(Node("star", [self._struct()]))
            else:
                self._comma_list(ch, self._expr)
        ch.append(self._punct(RPAREN, "')'"))
        node = Node("func", ch)
        if self.tok.upper == "FILTER":
            fch = [node, self._struct(), self._punct(LPAREN, "'('"),
                   self._kw("WHERE"), self._expr(), self._punct(RPAREN, "')'")]
            node = Node("filtered", fch)
        if self.tok.upper == "OVER":
            node = Node("window", [node, self._over_clause()])
        return node

    def _over_clause(self) -> Node:
        ch = [self._kw("OVER")]
        if self.tok.kind == LPAREN:
            ch.append(self._struct())
            if self.tok.upper == "PARTITION":
                ch.append(self._struct())
                ch.append(self._kw("BY"))
                ch.append(self._expr_list())
            if self.tok.upper == "ORDER":
                ch.append(self._order_clause())
            if self.tok.upper in ("ROWS", "RANGE", "GROUPS"):
                ch.append(self._frame_spec())
            ch.append(self._punct(RPAREN, "')'"))
        else:
            ch.append(self._name("expected window name or '(' after OVER"))
        return Node("over", ch)

    def _frame_spec(self) -> Node:
        ch = [self._struct()]
        if self.tok.upper == "BETWEEN":
            ch += [self._struct(), self._frame_bound(), self._kw("AND"), self._frame_bound()]
        else:
            ch.append(self._frame_bound())
        return Node("frame", ch)

    def _frame_bound(self) -> Node:
        if self.tok.upper == "UNBOUNDED":
            return Node("frame_bound", [self._struct(), self._kw("PRECEDING", "FOLLOWING")])
        if self.tok.upper == "CURRENT":
            return Node("frame_bound", [self._struct(), self._kw("ROW")])
        return Node("frame_bound", [self._expr(), self._kw("PRECEDING", "FOLLOWING")])

    def _column_ref(self) -> Node:
        ch = [self._schema()]
        while self.tok.kind == DOT:
            ch.append(self._schema())
            if self.tok.upper == "*":
                ch.append(self._struct())
                return Node("star", ch)
            ch.append(self._name("expected identifier after '.'"))
        return Node("col", ch)


def query_tokens(text: str) -> list[Token]:
    """The tokens that parse_sql parses: those of the text without its
    trailing semicolons, then the END sentinel. Text with no tokens raises
    ParseError."""
    toks = tokenize(text)
    while toks and toks[-1].kind == SEMI:
        toks.pop()
    if not toks:
        raise ParseError("query contains no tokens", 0)
    toks.append(Token(END, "", len(text), ""))
    return toks


def shape_key(tokens: list[Token]) -> tuple[str, ...]:
    """The shape of a token list, a query's query_tokens: each token's
    ``upper`` if it is in SHAPE_VOCABULARY, and its kind otherwise. The
    parser compares tokens only by kind and with texts of that vocabulary,
    so two queries of one shape take one path through it: both parse, with
    their template tokens at the same positions, or both fail."""
    vocabulary = SHAPE_VOCABULARY
    return tuple([upper if upper in vocabulary else kind for kind, _, _, upper in tokens])


def parse_sql(text: str, tokens: list[Token] | None = None) -> Node:
    """Parse a SELECT query into a role-tagged syntax tree, whose root
    carries the query's structural template as ``template`` and the
    indices of those tokens in query_tokens(text) as ``positions``.
    ``tokens`` is query_tokens(text), when the caller has made it already.

    Every failure is a ParseError: text outside the supported grammar, text
    with no tokens, and nesting deeper than MAX_NESTING levels ("query
    nests too deeply"). A RecursionError, which the explicit limit should
    prevent, is reported the same way. Callers that process whole corpora
    catch it and record the failure.
    """
    toks = query_tokens(text) if tokens is None else tokens
    parser = _Parser(toks)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("query nests too deeply", parser.tok.pos) from None
