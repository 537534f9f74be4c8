"""Prolog term representation.

Terms are immutable. The four concrete kinds are:

* :class:`Var` — a logic variable, identified by name (source level) or
  by an integer stamp (renamed-apart runtime variables).
* :class:`Atom` — a nullary constant, e.g. ``foo``, ``[]``, ``+``.
* :class:`Int` — an integer constant.
* :class:`Struct` — a compound term ``f(t1, ..., tn)`` with ``n >= 1``.

Lists use the conventional ``'.'/2`` functor and the ``[]`` atom.  The
pretty printer displays list cells with bracket notation; the type
analyser displays the ``'.'/2`` functor as ``cons`` to match the paper.
"""

from __future__ import annotations

from typing import Iterator, Tuple, Union

__all__ = [
    "Term",
    "Var",
    "Atom",
    "Int",
    "Struct",
    "NIL",
    "CONS",
    "make_list",
    "list_elements",
    "term_variables",
    "term_size",
    "term_depth",
    "is_list_term",
    "functor_of",
    "format_term",
]


# The four term classes are slotted values: a plain ``__init__`` (no
# per-field ``object.__setattr__``), equality only between instances of
# the same class (``Atom("x") != Var("x")``), and the hash of the tuple
# of their fields.  Nothing assigns to a term's fields after
# construction.

class Var:
    """A logic variable.  ``name`` is the printed name, ``stamp`` makes
    renamed-apart copies distinct (-1 for source-level variables)."""

    __slots__ = ("name", "stamp")

    def __init__(self, name: str, stamp: int = -1) -> None:
        self.name = name
        self.stamp = stamp

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name and self.stamp == other.stamp

    def __hash__(self) -> int:
        return hash((self.name, self.stamp))

    def __repr__(self) -> str:
        if self.stamp < 0:
            return self.name
        return "_%s%d" % (self.name, self.stamp)


class Atom:
    """A nullary constant."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Atom:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))

    def __repr__(self) -> str:
        return self.name


class Int:
    """An integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Int:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value,))

    def __repr__(self) -> str:
        return str(self.value)


class Struct:
    """A compound term ``name(args...)`` with at least one argument."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple["Term", ...]) -> None:
        if not args:
            raise ValueError("Struct requires at least one argument; use Atom")
        self.name = name
        self.args = args

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Struct:
            return NotImplemented
        return self.name == other.name and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.name, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        return format_term(self)


Term = Union[Var, Atom, Int, Struct]

NIL = Atom("[]")
CONS = "."


def make_list(elements, tail: Term = NIL) -> Term:
    """Build a Prolog list term from a Python iterable."""
    result = tail
    for element in reversed(list(elements)):
        result = Struct(CONS, (element, result))
    return result


def list_elements(term: Term):
    """Return (elements, tail) of a list term; tail is NIL for proper lists."""
    elements = []
    while isinstance(term, Struct) and term.name == CONS and term.arity == 2:
        elements.append(term.args[0])
        term = term.args[1]
    return elements, term


def is_list_term(term: Term) -> bool:
    """True iff ``term`` is a proper (nil-terminated) list."""
    _, tail = list_elements(term)
    return tail == NIL


def functor_of(term: Term):
    """Return the (name, arity) pair of a non-variable term.

    Integers get the pseudo-functor ``(str(value), 0)``.
    """
    if isinstance(term, Atom):
        return (term.name, 0)
    if isinstance(term, Int):
        return (str(term.value), 0)
    if isinstance(term, Struct):
        return (term.name, term.arity)
    raise TypeError("variable has no functor: %r" % (term,))


def term_variables(term: Term) -> list:
    """All variables of ``term`` in first-occurrence order."""
    seen = []
    seen_set = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            if t not in seen_set:
                seen_set.add(t)
                seen.append(t)
        elif isinstance(t, Struct):
            stack.extend(reversed(t.args))
    return seen


def _walk(term: Term) -> Iterator[Term]:
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Struct):
            stack.extend(t.args)


def term_size(term: Term) -> int:
    """Number of symbol occurrences in ``term``."""
    return sum(1 for _ in _walk(term))


def term_depth(term: Term) -> int:
    """Depth of ``term``; constants and variables have depth 1."""
    if isinstance(term, Struct):
        return 1 + max(term_depth(a) for a in term.args)
    return 1


_SOLO = set("!,;|")
_SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&$")


def _atom_needs_quotes(name: str) -> bool:
    if name == "":
        return True
    if name in ("[]", "{}", "!", ";", ","):
        return False
    first = name[0]
    if first.islower() and all(c.isalnum() or c == "_" for c in name):
        return False
    if all(c in _SYMBOL_CHARS for c in name):
        return False
    return True


def format_atom(name: str) -> str:
    if _atom_needs_quotes(name):
        escaped = name.replace("\\", "\\\\").replace("'", "\\'")
        return "'%s'" % escaped
    return name


def format_term(term: Term) -> str:
    """Render a term in (operator-free) canonical Prolog syntax, with
    bracket notation for lists.  The walk keeps its own stack of
    subterms and separators still to write, so a term of any depth
    renders."""
    out = []
    stack = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(repr(item))
        elif isinstance(item, Atom):
            out.append(format_atom(item.name))
        elif isinstance(item, Int):
            out.append(str(item.value))
        elif isinstance(item, Struct):
            if item.name == CONS and item.arity == 2:
                parts, tail = list_elements(item)
                out.append("[")
                stack.append("]")
                if tail != NIL:
                    stack.append(tail)
                    stack.append("|")
            else:
                parts = item.args
                out.append(format_atom(item.name) + "(")
                stack.append(")")
            for index in range(len(parts) - 1, 0, -1):
                stack.append(parts[index])
                stack.append(",")
            stack.append(parts[0])
        else:
            raise TypeError("not a term: %r" % (item,))
    return "".join(out)
