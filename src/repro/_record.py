"""Records whose methods live in the module source.

``@dataclass`` writes each class's ``__init__``, ``__eq__`` and ``__repr__``
(and, frozen, ``__hash__``, ``__setattr__`` and ``__delattr__``) as source
text and compiles it with ``exec`` when the decorator runs, and ``import
dataclasses`` also loads ``inspect``.  A ``.pyc`` caches neither, so every
process pays both again: on the study path that was most of ``import
repro``.  The modules a study's set-up loads, and the table rows a CLI
study renders, therefore declare their records as ``__slots__`` classes
that write their own ``__init__`` and take the rest from here::

    class Point(FrozenRecord):
        __slots__ = ("x", "y")

        x: int
        y: int

        def __init__(self, x: int, y: int = 0) -> None:
            set_field(self, "x", x)
            set_field(self, "y", y)

A record's fields are its annotations in declaration order, after those
of the record it extends.  ``==`` compares two instances of the same class
field by field, and ``repr`` lists every field as ``name=value``: both as
``@dataclass`` writes them.  A :class:`FrozenRecord` hashes the tuple of
its fields, refuses assignment and deletion, and pickles by calling its
constructor with its fields; a mutable :class:`Record` is unhashable.  A
class that needs something else overrides that one method.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["FrozenRecord", "Record", "set_field"]

#: Assigns a field from a frozen record's ``__init__``, past its refusing
#: ``__setattr__``.
set_field = object.__setattr__


class Record:
    """A mutable record: equality and repr over its fields, no hash."""

    __slots__ = ()

    #: The field names; ``_values(record)`` returns their values as a tuple.
    _fields: tuple[str, ...] = ()

    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = names
        if len(names) > 1:
            cls._values = staticmethod(attrgetter(*names))
        else:
            cls._values = staticmethod(
                lambda record: tuple(getattr(record, name) for name in names)
            )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values(self))
        )
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable record: hashable, refuses assignment and deletion."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (self.__class__, self._values(self))
