"""Immutable value records and the package's stderr diagnostics.

Both stand in for standard-library machinery (frozen dataclasses and
``logging``) whose import alone costs a CLI launch more than the
computation it serves.
"""

from __future__ import annotations

import os
import sys


# Records are immutable, so their constructors set each field with this.
set_field = object.__setattr__


class Record:
    """Base of the package's value records.

    A subclass lists its fields in ``__slots__`` and sets each of them in its
    own ``__init__`` with :data:`set_field`.  Records compare, hash and print
    by field value like frozen dataclasses, and assigning or deleting any
    attribute raises AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        # Rebuild through the constructor; pickle's default would assign slots.
        return self.__class__, self._values()


DEBUG, INFO, ERROR = 10, 20, 40
_LEVELS = {"debug": DEBUG, "info": INFO, "error": ERROR}
_level = ERROR


def configure_from_env() -> None:
    """Set the diagnostics level from LINESEARCH_LOG (error, info or debug).

    Unknown values mean error, which prints nothing; until this runs the
    level is error too, so library use stays silent.
    """
    global _level
    _level = _LEVELS.get(os.environ.get("LINESEARCH_LOG", "error").lower(), ERROR)


class Emitter:
    """Writes ``LEVEL name: message`` lines to stderr at or above the level."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _write(self, label: str, msg: str, args: tuple) -> None:
        print(f"{label} {self.name}: {msg % args if args else msg}", file=sys.stderr)

    def debug(self, msg: str, *args) -> None:
        if _level <= DEBUG:
            self._write("DEBUG", msg, args)

    def info(self, msg: str, *args) -> None:
        if _level <= INFO:
            self._write("INFO", msg, args)
