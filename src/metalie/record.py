"""Field-wise equality, hashing and repr for the package's plain value classes.

A subclass names its fields in `_fields` and sets them in its own `__init__`.
Two instances are equal when they are of exactly one class and their fields
are equal; the hash is that of the field tuple, so an instance is hashable
when its fields are (a mutable class sets `__hash__ = None`).  The package
uses this instead of `dataclasses`, whose import and generated methods were
the largest share of the start-up time of every command.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({pairs})"
