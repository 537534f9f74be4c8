"""Standard Prolog operator table.

An operator definition is ``(priority, type)`` with type one of
``xfx, xfy, yfx`` (infix), ``fy, fx`` (prefix), ``xf, yf`` (postfix).
``x`` means the argument must have *strictly lower* priority, ``y``
means lower *or equal*.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .._record import FrozenRecord

__all__ = ["OperatorTable", "OpDef", "default_operators", "MAX_PRIORITY"]

MAX_PRIORITY = 1200


class OpDef(FrozenRecord):
    """One operator definition: a priority and a type."""

    __slots__ = ("priority", "type")

    def __init__(self, priority: int, type: str) -> None:
        self.priority = priority
        self.type = type  # xfx | xfy | yfx | fy | fx | xf | yf

    @property
    def is_infix(self) -> bool:
        return self.type in ("xfx", "xfy", "yfx")

    @property
    def is_prefix(self) -> bool:
        return self.type in ("fy", "fx")

    @property
    def is_postfix(self) -> bool:
        return self.type in ("xf", "yf")

    def left_max(self) -> int:
        """Maximal priority allowed for the left argument (infix/postfix)."""
        if self.type in ("yfx", "yf"):
            return self.priority
        return self.priority - 1

    def right_max(self) -> int:
        """Maximal priority allowed for the right argument (infix/prefix)."""
        if self.type in ("xfy", "fy"):
            return self.priority
        return self.priority - 1


_DEFAULT: Dict[str, Tuple[Optional[OpDef], Optional[OpDef]]] = {}


def _add(table, name: str, priority: int, optype: str) -> None:
    infix, prefix = table.get(name, (None, None))
    opdef = OpDef(priority, optype)
    if opdef.is_prefix:
        table[name] = (infix, opdef)
    else:
        table[name] = (opdef, prefix)


for _name, _pri, _type in [
    (":-", 1200, "xfx"), ("-->", 1200, "xfx"),
    (":-", 1200, "fx"), ("?-", 1200, "fx"),
    (";", 1100, "xfy"), ("|", 1100, "xfy"), ("->", 1050, "xfy"),
    (",", 1000, "xfy"),
    ("\\+", 900, "fy"), ("not", 900, "fy"),
    ("=", 700, "xfx"), ("\\=", 700, "xfx"),
    ("==", 700, "xfx"), ("\\==", 700, "xfx"),
    ("@<", 700, "xfx"), ("@>", 700, "xfx"),
    ("@=<", 700, "xfx"), ("@>=", 700, "xfx"),
    ("=..", 700, "xfx"), ("is", 700, "xfx"),
    ("=:=", 700, "xfx"), ("=\\=", 700, "xfx"),
    ("<", 700, "xfx"), (">", 700, "xfx"),
    ("=<", 700, "xfx"), (">=", 700, "xfx"),
    ("+", 500, "yfx"), ("-", 500, "yfx"),
    ("/\\", 500, "yfx"), ("\\/", 500, "yfx"), ("xor", 500, "yfx"),
    ("*", 400, "yfx"), ("/", 400, "yfx"), ("//", 400, "yfx"),
    ("mod", 400, "yfx"), ("rem", 400, "yfx"),
    ("<<", 400, "yfx"), (">>", 400, "yfx"),
    ("**", 200, "xfx"), ("^", 200, "xfy"),
    ("-", 200, "fy"), ("+", 200, "fy"), ("\\", 200, "fy"),
]:
    _add(_DEFAULT, _name, _pri, _type)


class OperatorTable:
    """Operator lookups for the parser.  A name can have at most one
    infix/postfix definition and one prefix definition simultaneously."""

    def __init__(self, definitions=None) -> None:
        if definitions is None:
            definitions = dict(_DEFAULT)
        self._defs = definitions

    def infix(self, name: str) -> Optional[OpDef]:
        opdef = self._defs.get(name, (None, None))[0]
        if opdef is not None and opdef.is_infix:
            return opdef
        return None

    def postfix(self, name: str) -> Optional[OpDef]:
        opdef = self._defs.get(name, (None, None))[0]
        if opdef is not None and opdef.is_postfix:
            return opdef
        return None

    def prefix(self, name: str) -> Optional[OpDef]:
        return self._defs.get(name, (None, None))[1]

    def is_operator(self, name: str) -> bool:
        return name in self._defs

    def add(self, name: str, priority: int, optype: str) -> None:
        """Register an operator, as ``op/3`` would."""
        if not 0 < priority <= MAX_PRIORITY:
            raise ValueError("operator priority out of range: %d" % priority)
        if optype not in ("xfx", "xfy", "yfx", "fy", "fx", "xf", "yf"):
            raise ValueError("bad operator type: %s" % optype)
        _add(self._defs, name, priority, optype)

    def copy(self) -> "OperatorTable":
        return OperatorTable(dict(self._defs))


def default_operators() -> OperatorTable:
    """A fresh table holding the standard Prolog operators."""
    return OperatorTable()
