"""Structural query templates: the token sequence that remains after all
schema-specific leaves (identifiers, aliases, literals, parameters) are
removed from a parse tree."""

from __future__ import annotations

from dataclasses import dataclass

from .parsing import STRUCTURAL, SyntaxTree, parse_sql


@dataclass(frozen=True)
class StructuralTemplate:
    """Ordered structural tokens of one query. Keywords are uppercased;
    two queries are structurally identical iff their canonical_text match."""

    tokens: tuple[str, ...]

    @property
    def canonical_text(self) -> str:
        return " ".join(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return self.canonical_text


def derive_template(tree: SyntaxTree) -> StructuralTemplate:
    """Keep the structural tokens of a tree in source order, uppercasing
    word tokens. Total on valid trees."""
    return StructuralTemplate(tuple(
        node.token.upper for node in tree.token_nodes() if node.role == STRUCTURAL))


def templatize(query: str) -> StructuralTemplate:
    """Parse a query and derive its structural template in one step."""
    return derive_template(parse_sql(query))
