"""Base classes of the package's value types.

A value class names its fields in ``_fields``, in constructor order, and
sets them in its own ``__init__``. Two values are equal when they are of
the same class and their fields are equal, and they print as
``Name(field=value, ...)``. A ``Value`` can change, so it has no hash; a
``FrozenValue`` is hashed by its fields and refuses every assignment after
``__init__``, which therefore sets its fields with ``object.__setattr__``.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenValue(Value):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
