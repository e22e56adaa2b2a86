"""Bases of rhlab's record classes.

A record is a ``__slots__`` class with its own ``__init__``; its fields are
its ``__slots__``, in order.  ``@dataclass`` would generate and compile
those methods for every class at import, 0.3-0.7 ms a class on a 2-vCPU
Xeon, against 0.01 ms for a class written out, so rhlab has no dataclass.
``RunConfig`` is a ``Value`` whose slots are the rows of the INI schema
table in ``rhlab.config``.

``Record`` gives the dataclass repr of the public fields.  ``Frozen`` forbids
assignment once ``__init__`` has set the fields with ``_set``, and keeps
equality and the hash by identity (``picard.State``).  ``Value``
adds equality and a hash by field values, as a frozen dataclass has, so an
instance can key a cache, and ``_replace``, a copy with some fields changed
that is validated again (``SpatialGrid._replace(rho_bar=...)`` lifts a
grid's background density).
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                           if not name.startswith("_"))
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def _replace(self, **changes):
        """A copy with the given fields changed, validated again."""
        return type(self)(**dict(zip(self.__slots__, self._fields()), **changes))
