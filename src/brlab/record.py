"""Immutable value records on `__slots__`.

A record class lists its fields in `__slots__`.  Its instances are built
from those fields in order, positionally or by keyword, with missing
ones taken from the class's `_defaults`; they refuse assignment,
compare equal and hash alike when the fields named in `_compared` (all of
them by default) are equal, print as `Name(field=value, ...)`, and
pickle by their fields through the class's constructor.

Unlike `dataclasses`, nothing is generated when a class is defined, so
importing the package stays cheap for the one-process-per-job CLI.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults: dict = {}
    _compared: tuple[str, ...] | None = None

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__}: bad or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name in values:
                value = values[name]
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}: missing field {name!r}")
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared or self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**{**{name: getattr(self, name) for name in self.__slots__}, **changes})
