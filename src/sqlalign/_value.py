"""Base class of the package's value types.

A value class names its fields in ``_fields``, in constructor order, and
its own ``__init__`` checks its arguments, works out any field that
follows from them, and passes the field values, in that order, to
``Value.__init__``, which sets them. A value never changes after that: it
refuses every assignment and deletion, which is why ``Value.__init__`` sets
the fields with ``object.__setattr__``. Two values are equal when they are
of the same class and their fields are equal, a value is hashed by its
fields (so one that holds a dict or a list has no hash), and it prints as
``Name(field=value, ...)``.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
