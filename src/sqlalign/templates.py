"""Structural query templates: the token sequence that remains after all
schema-specific leaves (identifiers, aliases, literals, parameters) are
removed from a parse tree."""

from __future__ import annotations

from ._value import FrozenValue
from .parsing import Node, parse_sql, query_tokens, shape_key, shape_sketch, template_slots


class StructuralTemplate(FrozenValue):
    """Ordered structural tokens of one query. Keywords are uppercased;
    two queries are structurally identical iff their canonical_text match."""

    _fields = ("tokens",)

    def __init__(self, tokens: tuple[str, ...]):
        object.__setattr__(self, "tokens", tokens)

    @property
    def canonical_text(self) -> str:
        return " ".join(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return self.canonical_text


def derive_template(tree: Node) -> StructuralTemplate:
    """The template of a tree returned by parse_sql: its structural tokens
    in source order, word tokens uppercased, as the parser recorded them.
    Any other node, a subtree of such a tree included, raises ValueError."""
    template = getattr(tree, "template", None)
    if template is None:
        raise ValueError("derive_template takes the root of a tree returned by parse_sql")
    return StructuralTemplate(template)


def templatize(query: str, shapes: dict | None = None) -> StructuralTemplate:
    """Parse a query and derive its structural template in one step.

    ``shapes`` is a shape table that calls share: a dict that maps the
    shape_sketch of every query it was given to None, and the shape_key of
    every shape parsed at a later sight of its sketch to its template and
    parsing.template_slots; a sketch starts with a count and a key with a
    text, so the two never meet. A query whose key is there
    takes its template from it, its slots filled from its own tokens,
    without a parse. The first query of a sketch is parsed without
    building its key, so a shape is parsed at most twice. A failure is not
    kept: a string that fails is parsed again and keeps its own message
    and offset.
    """
    if shapes is None:
        return derive_template(parse_sql(query))
    tokens = query_tokens(query)
    sketch = shape_sketch(tokens)
    if sketch not in shapes:
        shapes[sketch] = None
        return derive_template(parse_sql(query, tokens))
    key = shape_key(tokens)
    entry = shapes.get(key)
    if entry is None:
        tree = parse_sql(query, tokens)
        shapes[key] = tree.template, template_slots(tree)
        return derive_template(tree)
    template, slots = entry
    if slots:
        filled = list(template)
        for at, index in slots:
            filled[at] = tokens[index].upper
        template = tuple(filled)
    return StructuralTemplate(template)
