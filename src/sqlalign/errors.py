"""Exception types shared across the package."""

from __future__ import annotations


class SqlAlignError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SqlAlignError):
    """SQL text could not be tokenized or parsed.

    ``position`` is a character offset into the original query text.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        # The default rebuilds from args, the formatted text alone, which
        # __init__ cannot take; rebuild from the __init__ arguments.
        return type(self), (self.message, self.position), self.__dict__


class EmptyDistributionError(SqlAlignError):
    """An n-gram distribution has no entries (nothing survived filtering)."""


class EmptyTargetSetError(SqlAlignError):
    """The target template set of an overlap ratio is empty."""


class FormatError(SqlAlignError):
    """A corpus file or row is malformed. ``row`` is a 0-based record index
    where one is known."""

    def __init__(self, message: str, row: int | None = None):
        prefix = f"row {row}: " if row is not None else ""
        super().__init__(prefix + message)
        self.message = message
        self.row = row


class EmptyCorpusError(FormatError):
    """A corpus file yielded no records."""


class SpecMismatchError(SqlAlignError):
    """Two inputs were built to different specifications and cannot be
    compared: pattern-count tables that cover different pattern ids, or
    n-gram distributions with different l_max."""
