"""Leaf domains: the generic parameter R of Pat(R) (paper §5).

``Pat(R)`` maintains *sure* structural information (patterns) and
same-value information; what is known about the remaining *leaves* is
delegated to a leaf domain:

* :class:`TypeLeafDomain` — R = Type: each leaf carries a type grammar.
  ``Pat(TypeLeafDomain)`` is the paper's ``Pat(Type)``.
* :class:`TrivialLeafDomain` — R = nothing: leaves carry no
  information.  ``Pat(TrivialLeafDomain)`` keeps only sure functors and
  same-value pairs — the *principal functor* analysis used as the
  accuracy baseline in §9 (Tables 4–5).

A leaf value is opaque to Pat(R); all manipulation goes through the
methods below.  ``meet`` returning ``None`` signals failure (bottom),
which is how ``Pat(Type)`` refutes unifications that the principal
functor domain cannot.
"""

from __future__ import annotations

import itertools
import threading
from typing import Optional, Sequence, Tuple

from ..typegraph.grammar import (Grammar, g_any, g_functor, g_int,
                                 g_int_literal)
from ..typegraph.ops import g_intersect, g_le, g_split, g_union
from ..typegraph.widening import g_widen

__all__ = ["LeafDomain", "TypeLeafDomain", "TrivialLeafDomain",
           "DepthBoundLeafDomain", "TOP", "domain_from_descriptor"]


class _Top:
    """The single value of the trivial leaf domain."""

    __slots__ = ()
    _instance: Optional["_Top"] = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Any"


TOP = _Top()


#: Domain identity registry: ``(class, configuration items)`` -> did.
#: Keys are the scalar settings of :meth:`LeafDomain._configuration`,
#: so the registry holds one small entry per distinct configuration a
#: process has seen.  Ids come from one counter under one lock, so
#: they are dense, never reused, and two configurations never share
#: one.
_DIDS: dict = {}
_DIDS_LOCK = threading.Lock()
_NEXT_DID = itertools.count()


class LeafDomain:
    """Abstract base for leaf domains.  Subclasses must be stateless
    apart from configuration (they are shared across substitutions).

    Every instance carries a dense per-process id ``did`` that the
    pattern-level operation memos in :mod:`repro.domains.pattern`
    (and the native tier's per-substitution collapse maps) key on.
    The id is the domain's *configuration*: instances of one class
    with equal :meth:`descriptor` share it, because they compute
    identical results, so a memo line written by one analysis serves
    every later analysis with the same configuration.  A subclass
    without a descriptor, or a type domain with a type database, gets
    a fresh id per instance (see :meth:`_configuration`).  Subclasses
    set their configuration before calling ``LeafDomain.__init__``."""

    name = "abstract"

    #: True when ``join(a, a) == a`` and ``widen(a, a) == a`` for every
    #: domain value — lets the pattern layer skip merge walks on equal
    #: substitutions.  :class:`DepthBoundLeafDomain` overrides this:
    #: its join is ``restrict_depth(union)``, which can *shrink* a
    #: value that exceeds the depth bound, so even x ⊔ x must run.
    idempotent_joins = True

    def __init__(self) -> None:
        key = self._configuration()
        with _DIDS_LOCK:
            did = _DIDS.get(key)
            if did is None:
                did = next(_NEXT_DID)
                if key is not None:
                    _DIDS[key] = did
        self.did = did
        #: True when ``did`` names the configuration, so per-instance
        #: memos may key on it; a fresh id dies with this instance.
        self.shared_did = key is not None

    def _configuration(self):
        """Registry key of everything this domain's results depend on,
        or None for a fresh id (the instance then shares no memo
        lines)."""
        try:
            return type(self), tuple(sorted(self.descriptor().items()))
        except NotImplementedError:
            return None

    def top(self):
        """The value describing every term (free variables included)."""
        raise NotImplementedError

    def is_top(self, value) -> bool:
        raise NotImplementedError

    def meet(self, a, b):
        """Greatest lower bound approximation; None means bottom."""
        raise NotImplementedError

    def join(self, a, b):
        """Least upper bound approximation."""
        raise NotImplementedError

    def widen(self, old, new, strict: bool = True):
        """Widening (old is the previous iterate).  ``strict=False``
        allows growth instead of destructive replacement; callers must
        escalate to strict mode eventually (see engine)."""
        raise NotImplementedError

    def le(self, a, b) -> bool:
        """Order; may be conservative (False when unknown)."""
        raise NotImplementedError

    def split(self, value, name: str, arity: int,
              is_int: bool) -> Optional[Tuple]:
        """Constrain ``value`` to terms with the given principal functor
        and return the argument values, or None if that is impossible
        (the unification surely fails)."""
        raise NotImplementedError

    def from_functor(self, name: str, is_int: bool, children: Sequence):
        """The value of ``name(children...)`` — used when a pattern
        subtree is collapsed into a leaf (the Pat/Type interaction of
        §5)."""
        raise NotImplementedError

    def le_tree(self, value, name: str, is_int: bool,
                children: Sequence) -> bool:
        """Is ``value`` included in the tree ``name(children...)``?
        Used to compare a leaf against a pattern; may be conservative."""
        raise NotImplementedError

    def display(self, value) -> str:
        raise NotImplementedError

    # -- serialization (service layer) --------------------------------------

    def encode_leaf(self, value):
        """JSON-ready canonical encoding of one leaf value."""
        raise NotImplementedError

    def decode_leaf(self, data):
        """Inverse of :meth:`encode_leaf`."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        """JSON-ready description of the domain and its configuration,
        sufficient to rebuild it with :func:`domain_from_descriptor`."""
        raise NotImplementedError


class TypeLeafDomain(LeafDomain):
    """R = Type: leaves carry type grammars (paper §6).

    ``max_or_width`` is the or-degree restriction of Table 3 ("(5)" and
    "(2)" rows): or-vertices with more successors collapse to Any.
    """

    name = "type"

    def __init__(self, max_or_width: Optional[int] = None,
                 type_database: Optional[list] = None) -> None:
        self.max_or_width = max_or_width
        self.type_database = type_database
        super().__init__()

    def _configuration(self):
        # a type database would make its full encoding a permanent
        # registry key, one per distinct database a client sends
        if self.type_database is not None:
            return None
        return super()._configuration()

    def top(self) -> Grammar:
        return g_any()

    def is_top(self, value: Grammar) -> bool:
        # normalization collapses any grammar containing a root ANY to
        # exactly {0: Any}, so the interned Any instance is unique and
        # the common case is one identity check
        return value is g_any() or value.is_any()

    def meet(self, a: Grammar, b: Grammar) -> Optional[Grammar]:
        result = g_intersect(a, b, self.max_or_width)
        if result.is_bottom():
            return None
        return result

    def join(self, a: Grammar, b: Grammar) -> Grammar:
        return g_union(a, b, self.max_or_width)

    def widen(self, old: Grammar, new: Grammar,
              strict: bool = True) -> Grammar:
        return g_widen(old, new, self.max_or_width, strict,
                       self.type_database)

    def le(self, a: Grammar, b: Grammar) -> bool:
        return g_le(a, b)

    def split(self, value: Grammar, name: str, arity: int,
              is_int: bool) -> Optional[Tuple[Grammar, ...]]:
        return g_split(value, name, arity, is_int)

    def from_functor(self, name: str, is_int: bool,
                     children: Sequence[Grammar]) -> Grammar:
        if is_int:
            return g_int_literal(int(name))
        return g_functor(name, list(children), self.max_or_width)

    def le_tree(self, value: Grammar, name: str, is_int: bool,
                children: Sequence[Grammar]) -> bool:
        return g_le(value, self.from_functor(name, is_int, children))

    def int_type(self) -> Grammar:
        return g_int()

    def display(self, value: Grammar) -> str:
        from ..typegraph.display import grammar_to_text
        return grammar_to_text(value)

    def encode_leaf(self, value: Grammar) -> dict:
        return value.to_obj()

    def decode_leaf(self, data: dict) -> Grammar:
        return Grammar.from_obj(data)

    def descriptor(self) -> dict:
        return {
            "name": self.name,
            "max_or_width": self.max_or_width,
            "type_database": (None if self.type_database is None else
                              [g.to_obj() for g in self.type_database]),
        }


class DepthBoundLeafDomain(TypeLeafDomain):
    """R = Type, but with the Bruynooghe/Janssens finite subdomain in
    place of the widening (§7's alternative): joins and widenings both
    go through union + depth restriction, so no widening is needed —
    at the accuracy cost §10 describes for same-functor nesting.  Used
    by the ablation benchmarks."""

    name = "type-depth-bound"
    idempotent_joins = False  # depth restriction may shrink x ⊔ x

    def __init__(self, k: int = 1,
                 max_or_width: Optional[int] = None) -> None:
        self.k = k
        super().__init__(max_or_width)

    def join(self, a: Grammar, b: Grammar) -> Grammar:
        from ..typegraph.depthbound import depth_bound_join
        return depth_bound_join(a, b, self.k)

    def widen(self, old: Grammar, new: Grammar,
              strict: bool = True) -> Grammar:
        from ..typegraph.depthbound import depth_bound_join
        return depth_bound_join(old, new, self.k)

    def descriptor(self) -> dict:
        return {"name": self.name, "k": self.k,
                "max_or_width": self.max_or_width}


class TrivialLeafDomain(LeafDomain):
    """R = nothing: the principal-functor baseline of §9.

    All leaves are Any; only the pattern and same-value components of
    Pat(R) carry information — "roughly equivalent to the domain of
    Taylor" as the paper puts it.
    """

    name = "trivial"

    def top(self):
        return TOP

    def is_top(self, value) -> bool:
        return value is TOP

    def meet(self, a, b):
        return TOP

    def join(self, a, b):
        return TOP

    def widen(self, old, new, strict: bool = True):
        return TOP

    def le(self, a, b) -> bool:
        return True

    def split(self, value, name: str, arity: int,
              is_int: bool) -> Optional[Tuple]:
        return tuple(TOP for _ in range(arity))

    def from_functor(self, name: str, is_int: bool, children: Sequence):
        return TOP

    def le_tree(self, value, name: str, is_int: bool,
                children: Sequence) -> bool:
        return False  # a bare leaf never certifies sure structure

    def display(self, value) -> str:
        return "Any"

    def encode_leaf(self, value) -> str:
        return "top"

    def decode_leaf(self, data):
        return TOP

    def descriptor(self) -> dict:
        return {"name": self.name}


def domain_from_descriptor(desc: dict) -> LeafDomain:
    """Rebuild a leaf domain from :meth:`LeafDomain.descriptor` output."""
    name = desc["name"]
    if name == TrivialLeafDomain.name:
        return TrivialLeafDomain()
    type_database = desc.get("type_database")
    if type_database is not None:
        type_database = [Grammar.from_obj(g) for g in type_database]
    if name == DepthBoundLeafDomain.name:
        return DepthBoundLeafDomain(desc.get("k", 1),
                                    desc.get("max_or_width"))
    if name == TypeLeafDomain.name:
        return TypeLeafDomain(desc.get("max_or_width"), type_database)
    raise ValueError("unknown leaf domain: %r" % name)
