"""Structural query templates: the token sequence that remains after all
schema-specific leaves (identifiers, aliases, literals, parameters) are
removed from a parse tree."""

from __future__ import annotations

from ._value import Value
from .parsing import Node, Token, parse_sql, query_tokens, shape_key


class StructuralTemplate(Value):
    """Ordered structural tokens of one query. Keywords are uppercased;
    two queries are structurally identical iff their canonical_text match."""

    _fields = ("tokens",)

    def __init__(self, tokens: tuple[str, ...]):
        super().__init__(tokens)

    @property
    def canonical_text(self) -> str:
        return " ".join(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return self.canonical_text


def derive_template(tree: Node) -> StructuralTemplate:
    """The template of a tree returned by parse_sql: the ``upper`` texts of
    its leaves at the root's ``positions``, in source order. Any other
    node, a subtree of such a tree included, raises ValueError."""
    positions = getattr(tree, "positions", None)
    if positions is None:
        raise ValueError("derive_template takes the root of a tree returned by parse_sql")
    leaves = [n for n in tree.walk() if isinstance(n, Token)]
    return StructuralTemplate(tuple([leaves[i].upper for i in positions]))


def templatize(query: str, shapes: dict | None = None,
               lexicon: dict | None = None) -> StructuralTemplate:
    """Parse a query and derive its structural template in one step.

    ``shapes`` is a shape table that calls share: a dict that maps the
    shape_key of every query parsed with it to an entry ``(positions,
    templates)``, the tree's ``positions`` and a dict of the templates
    read at them, each keyed by its tokens. Each query takes its template
    tokens from its own tokens at the positions of its shape; a query
    whose key is there does so without a parse, so each shape is parsed
    once, and a query whose tokens are there too gets that same
    StructuralTemplate object, so each (shape, template) builds one. A
    failure is not kept: a string that fails is parsed again and keeps
    its own message and offset. ``lexicon`` is tokenize's, used with a
    shape table.
    """
    if shapes is None:
        return derive_template(parse_sql(query))
    tokens = query_tokens(query, lexicon)
    key = shape_key(tokens)
    entry = shapes.get(key)
    if entry is None:
        entry = shapes[key] = (parse_sql(query, tokens).positions, {})
    positions, templates = entry
    words = tuple([tokens[i].upper for i in positions])
    template = templates.get(words)
    if template is None:
        template = templates[words] = StructuralTemplate(words)
    return template
