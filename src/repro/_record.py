"""Slotted record classes: the value semantics of a dataclass without
importing :mod:`dataclasses`.

``import dataclasses`` pulls in :mod:`inspect`, :mod:`ast` and
:mod:`tokenize`, and each ``@dataclass`` compiles its generated
methods when its module is imported.  The analysis path of a one-shot
CLI call used to pay both on every run.  A subclass of :class:`Record`
declares its fields as ``__slots__``, in declaration order, and writes
its own ``__init__`` with the dataclass's signature and defaults; it
gets the ``==``, ``repr`` and :meth:`~Record.replace` a ``@dataclass``
would provide.  Records are mutable and unhashable, like a plain
dataclass; :class:`FrozenRecord` adds the field-tuple hash of
``@dataclass(frozen=True)``.
"""

from __future__ import annotations

__all__ = ["Record", "FrozenRecord"]


class Record:
    """Base of a slotted record; see the module docstring."""

    __slots__ = ()

    #: The fields ``==`` (and a frozen record's hash) compare; None
    #: means every slot.  Set it to leave a field out, as
    #: ``field(compare=False)`` does.
    _compare = None

    __hash__ = None  # mutable, like a dataclass with eq=True

    def _values(self) -> tuple:
        return tuple([getattr(self, name)
                      for name in self._compare or self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self.__slots__))

    def replace(self, **changes):
        """A copy with ``changes`` applied, built through ``__init__``
        (``dataclasses.replace``)."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return self.__class__(**fields)


class FrozenRecord(Record):
    """A record that hashes by its compared fields.  Nothing stops an
    assignment, but frozen records are never changed after
    construction."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())
