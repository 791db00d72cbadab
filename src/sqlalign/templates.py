"""Structural query templates: the token sequence that remains after all
schema-specific leaves (identifiers, aliases, literals, parameters) are
removed from a parse tree."""

from __future__ import annotations

from ._value import FrozenValue
from .parsing import Node, parse_sql


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


def templatize(query: str) -> StructuralTemplate:
    """Parse a query and derive its structural template in one step."""
    return derive_template(parse_sql(query))
