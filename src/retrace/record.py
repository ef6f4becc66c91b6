"""Records: plain slotted classes whose fields are their `__slots__`.

Each record writes its own `__init__`; the bases below compare, hash and
print the fields as `dataclasses` would, without generating code when the
package is imported.
"""

from __future__ import annotations

# sets a field of a frozen record; only its `__init__` calls it
set_field = object.__setattr__


class Record:
    """A mutable record, unhashable, equal to a record of its own class whose
    fields are equal, except those in `_uncompared`."""

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()
    __hash__ = None

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__ if f not in self._uncompared)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A record that hashes as its compared fields and refuses assignment."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
