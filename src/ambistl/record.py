"""Immutable value classes, without generated code.

A :class:`Record` subclass names its fields in ``__slots__`` and writes its
own ``__init__``, which sets each field with ``object.__setattr__``.  From
the slots the base derives the rest of a value class: equality (same
class, equal fields), the hash of the field tuple, the
``Name(field=value, ...)`` repr and ``__match_args__``; nothing is
generated per class.  Assignment and deletion raise :class:`AttributeError`.
A slot whose name starts with an underscore is not a field; it holds a
cache, such as a formula's rendering.  Interned CCG categories compare by identity.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _values = staticmethod(lambda record: ())  # a record's field tuple

    def __init_subclass__(cls) -> None:
        own = tuple(name for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_"))
        names = cls.__match_args__ = cls.__match_args__ + own
        if len(names) == 1:  # attrgetter of one name returns the bare value
            get = attrgetter(*names)
            cls._values = staticmethod(lambda record: (get(record),))
        elif names:
            cls._values = staticmethod(attrgetter(*names))

    def __eq__(self, other: object) -> bool:
        if other is self:  # as tuple comparison does, before building field tuples
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuilt through the constructor, so copies and unpickled values are
        # checked again, caches are recomputed and interned values stay one object.
        return type(self), self._values(self)
