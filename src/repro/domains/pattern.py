"""The generic pattern domain Pat(R) (paper §5).

An abstract substitution over n variables consists of

* the **same-value component**: ``sv`` maps each variable to a subterm
  index — two variables mapping to the same index surely have the same
  value;
* the **pattern component**: a subterm either has a *pattern*
  ``f(i1, ..., ik)`` (its principal functor is surely ``f`` and its
  arguments are the given subterms) or is a *leaf*;
* the **R-component**: each leaf carries a value of the leaf domain
  (a type grammar for ``Pat(Type)``).

:class:`AbstractSubst` is the frozen, canonically-numbered form used
for tabulation; a substitution builder (:func:`make_builder`) is the
union-find engine that executes abstract unification (goals
``Xi = Xj`` and ``Xi = f(Xj...)``): the C engine of the native tier
for a Type domain, else the Python
:class:`~repro.domains.pybuilder.SubstBuilder`, which this module
imports on first use.  Unification is intersection on the leaf values —
sound because type-graph denotations are instantiation-closed (§6.9
"our type graphs are downward-closed").

Upper bound and widening keep the structure and sharing *common to
both* operands and collapse everything else into leaves, combining the
collapsed subtrees with the leaf domain's join/widen — exactly the
Pat/Type interaction described in §5: indices are removed from Pat(R)
and replaced by an equivalent type graph.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .._lazy import LazyModule
from ..typegraph import arena, opcache
from .leaf import LeafDomain, TypeLeafDomain

__all__ = [
    "PatNode", "AbstractSubst", "PAT_BOTTOM", "PatBottom",
    "intern_subst", "subst_top", "subst_join", "subst_widen", "subst_le",
    "subst_eq", "value_of", "display_subst", "make_builder",
]

#: The Python builder and walks (:mod:`repro.domains.pybuilder`),
#: imported on first use: the native tier serves a Type domain's
#: interned substitutions itself.
_PY = LazyModule("repro.domains.pybuilder")


def _native_for(domain: LeafDomain):
    """The native-tier module when it may handle ``domain``, else None.

    Gated on :class:`TypeLeafDomain` (covers DepthBoundLeafDomain,
    which inherits the meet/split/le primitives the C walks mirror;
    excludes leaf domains with different primitives)."""
    native = arena.NATIVE
    if native is not None and arena.enabled() \
            and isinstance(domain, TypeLeafDomain):
        return native
    return None


class PatNode:
    """One subterm.  ``args is None`` means leaf (then ``value`` holds
    the R-value); otherwise the node has pattern ``name(args...)``.

    A slotted value class with the hash computed once at construction:
    nodes are hashed on every substitution intern probe, and leaf
    values are interned grammars whose hashes are themselves cached,
    so the tuple hash below is cheap exactly once."""

    __slots__ = ("name", "is_int", "args", "value", "_hashv")

    def __init__(self, name: Optional[str] = None, is_int: bool = False,
                 args: Optional[Tuple[int, ...]] = None,
                 value: object = None) -> None:
        self.name = name
        self.is_int = is_int
        self.args = args
        self.value = value
        self._hashv = hash((name, is_int, args, value))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PatNode):
            return NotImplemented
        return (self._hashv == other._hashv and self.name == other.name
                and self.is_int == other.is_int and self.args == other.args
                and self.value == other.value)

    def __hash__(self) -> int:
        return self._hashv

    def __reduce__(self):
        return (PatNode, (self.name, self.is_int, self.args, self.value))

    @property
    def is_leaf(self) -> bool:
        return self.args is None

    @property
    def fkey(self) -> Tuple[str, str, int]:
        assert self.args is not None
        return ("i" if self.is_int else "f", self.name, len(self.args))


class PatBottom:
    """The empty abstract substitution (unification surely fails)."""

    __slots__ = ()
    _instance: Optional["PatBottom"] = None

    def __new__(cls) -> "PatBottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<bottom>"


PAT_BOTTOM = PatBottom()

#: Pattern-level operation memo tables (bounded LRUs shared with the
#: type-graph op caches' configuration and counters).  Keys are
#: ``(domain did, sid, sid[, strict])``; each entry stores
#: ``(result, operand, operand)`` so it keeps its operands interned —
#: a later analysis that rebuilds an equal operand then gets the same
#: sid, and the same key, instead of a fresh one.
_JOIN_CACHE = opcache.cache_for("subst_join")
_WIDEN_CACHE = opcache.cache_for("subst_widen")
_LE_CACHE = opcache.cache_for("subst_le")


def _unpickle_subst(nvars, sv, nodes, was_interned):
    subst = AbstractSubst(nvars, sv, nodes)
    if was_interned:
        return intern_subst(subst)
    return subst


#: Process-wide weak intern table for frozen substitutions, mirroring
#: the grammar intern table: the engine's tables, clause-output caches,
#: and differential joins circulate the same frozen substitutions over
#: and over, and interning makes their equality an identity check and
#: the pattern-level operations memoizable by id pair.
_SUBST_INTERN: "weakref.WeakValueDictionary[tuple, AbstractSubst]" = \
    weakref.WeakValueDictionary()
#: Guards probe-then-insert and the sid counter — same identity
#: invariant (and the same reasoning) as
#: ``repro.typegraph.grammar._INTERN_LOCK``.
_SUBST_INTERN_LOCK = threading.Lock()
_NEXT_SID = 0


def intern_subst(subst: "AbstractSubst") -> "AbstractSubst":
    """Canonical shared instance of a frozen substitution (structural
    hash-consing; semantically-equal-but-structurally-different
    substitutions stay distinct, exactly like `==`).  Thread-safe."""
    global _NEXT_SID
    if subst.interned:
        return subst
    key = (subst.nvars, subst.sv, subst.nodes)
    with _SUBST_INTERN_LOCK:
        # setdefault hashes the key once; the subst's own memoized
        # hash fills in lazily from the same tuple.
        canonical = _SUBST_INTERN.setdefault(key, subst)
        if canonical is subst:
            subst.interned = True
            subst.sid = _NEXT_SID
            _NEXT_SID += 1
    return canonical


class AbstractSubst:
    """Frozen abstract substitution.  Nodes are numbered in DFS order
    from ``sv`` (canonical), so structurally equal substitutions
    compare equal.  The hash is memoized: with leaf grammars interned,
    it reduces to combining precomputed grammar hashes, which is what
    makes the engine's hash-indexed table lookups cheap."""

    __slots__ = ("nvars", "sv", "nodes", "_hash", "_collapse",
                 "text_memo", "interned", "sid", "__weakref__")

    def __init__(self, nvars: int, sv: Tuple[int, ...],
                 nodes: Tuple[PatNode, ...]) -> None:
        self.nvars = nvars
        self.sv = sv
        self.nodes = nodes
        self._hash: Optional[int] = None
        #: per-instance :func:`value_of` memo, keyed (domain did,
        #: index) — the engine collapses the same cached clause
        #: outputs on every join/compare, so the memo pays across
        #: calls (and analyses), not just within one merge walk.
        self._collapse: Optional[Dict] = None
        #: per-instance JSON text memo of interned substitutions, keyed
        #: by domain did (filled by :mod:`repro.service.wire`); it dies
        #: with the substitution, like ``Grammar.to_obj``'s memo.
        self.text_memo: Optional[Dict] = None
        #: interning marker + dense per-process id (see
        #: :func:`intern_subst`); -1 until interned, never reused.
        self.interned = False
        self.sid = -1

    def __reduce__(self):
        # Like grammars, canonical identity is per-process: unpickled
        # substitutions re-intern on arrival instead of claiming the
        # sending process's id.
        return (_unpickle_subst,
                (self.nvars, self.sv, self.nodes, self.interned))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbstractSubst):
            return NotImplemented
        return (self.nvars == other.nvars and self.sv == other.sv
                and self.nodes == other.nodes)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self.sv, self.nodes))
        return self._hash

    def refcounts(self) -> List[int]:
        counts = [0] * len(self.nodes)
        for index in self.sv:
            counts[index] += 1
        for node in self.nodes:
            if node.args is not None:
                for arg in node.args:
                    counts[arg] += 1
        return counts

    def __repr__(self) -> str:
        parts = []
        for k in range(self.nvars):
            parts.append("X%d->s%d" % (k, self.sv[k]))
        return "<subst %s over %d nodes>" % (" ".join(parts),
                                             len(self.nodes))


# -- callbacks of the C substitution engine into the object layer -----------

def _freeze_build(sv: tuple, descs: list) -> "AbstractSubst":
    """Intern callback for the native builder's freeze: node
    descriptors (``(value,)`` leaf / ``(name, is_int, args)`` pattern,
    already in first-visit order) to the canonical frozen form."""
    nodes = []
    append = nodes.append
    for desc in descs:
        if len(desc) == 1:
            append(PatNode(value=desc[0]))
        else:
            append(PatNode(desc[0], desc[1], tuple(desc[2])))
    return intern_subst(AbstractSubst(len(sv), tuple(sv), tuple(nodes)))


def _subst_rows(subst: "AbstractSubst") -> tuple:
    """Flat per-node rows handed to the C tier on first sight of a
    sid: ``(name, is_int, args_or_None, value)`` per node."""
    rows = [(node.name, node.is_int, node.args, node.value)
            for node in subst.nodes]
    return (subst.sv, rows)


def make_builder(domain: LeafDomain):
    """A substitution builder for ``domain`` on the active kernel tier
    (the C union-find engine when the native tier is loaded and the
    leaf domain is grammar-backed, else the reference builder).  Both
    freeze to identical interned :class:`AbstractSubst` instances."""
    native = _native_for(domain)
    if native is not None:
        return native.make_builder(domain)
    return _PY.SubstBuilder(domain)


# -- operations on frozen substitutions ---------------------------------------

def subst_top(nvars: int, domain: LeafDomain) -> AbstractSubst:
    """n variables, no structure, no sharing, all leaves top —
    the input pattern ``p(Any, ..., Any)``."""
    nodes = tuple(PatNode(value=domain.top()) for _ in range(nvars))
    return intern_subst(AbstractSubst(nvars, tuple(range(nvars)), nodes))


def value_of(subst: AbstractSubst, index: int, domain: LeafDomain,
             memo: Optional[Dict[int, object]] = None):
    """Collapse the subtree at ``index`` into a single R-value.

    Memoized on the substitution instance (nodes are immutable), keyed
    by the domain's configuration id, so repeated joins/compares
    against the same frozen substitution collapse each subtree once
    per process instead of once per call — and the memo never pins
    the domain object itself.  The ``memo`` parameter is kept for API
    compatibility; the instance cache subsumes it."""
    if subst.interned:
        native = _native_for(domain)
        if native is not None:
            return native.value_of(subst, index, domain.did,
                                   domain.max_or_width)
    cache = subst._collapse
    if cache is None:
        cache = {}
        subst._collapse = cache
    key = (domain.did, index)
    value = cache.get(key)
    if value is not None:
        return value
    node = subst.nodes[index]
    if node.is_leaf:
        value = node.value
    else:
        children = [value_of(subst, a, domain) for a in node.args]
        value = domain.from_functor(node.name, node.is_int, children)
    cache[key] = value
    return value


def _merge_join(s1: AbstractSubst, s2: AbstractSubst,
                domain: LeafDomain) -> AbstractSubst:
    """The common-structure merge (:func:`repro.domains.pybuilder.merge`)
    with the leaf join, through the native walk when the tier can run
    it.  A domain that inherits ``TypeLeafDomain.join`` unmodified gets
    the pure-C combiner (mode 1); an overriding domain (e.g.
    depth-``k`` bounding) keeps its Python join as a callback."""
    if s1.interned and s2.interned:
        native = _native_for(domain)
        if native is not None:
            mode = 1 if type(domain).join is TypeLeafDomain.join else 0
            return native.subst_merge(s1, s2, domain.did,
                                      domain.max_or_width, mode, True,
                                      domain.join)
    return _PY.merge(s1, s2, domain, domain.join)


def _merge_widen(old: AbstractSubst, new: AbstractSubst,
                 domain: LeafDomain, strict: bool) -> AbstractSubst:
    """The common-structure merge with the leaf widening; pure-C (mode
    2) only when the domain keeps ``TypeLeafDomain.widen`` and has no
    type database — the database extension grafts arbitrary Python
    grammars."""
    if old.interned and new.interned:
        native = _native_for(domain)
        if native is not None:
            mode = (2 if type(domain).widen is TypeLeafDomain.widen
                    and domain.type_database is None else 0)
            return native.subst_merge(
                old, new, domain.did, domain.max_or_width, mode, strict,
                lambda a, b: domain.widen(a, b, strict))
    return _PY.merge(old, new, domain,
                     lambda a, b: domain.widen(a, b, strict))


def subst_join(s1, s2, domain: LeafDomain):
    """Upper bound (operation UNION of GAIA).

    Memoized on the domain's configuration id and the operands'
    interned identities (the differential engine re-joins the same
    cached clause outputs on every re-analysis, and a warm server
    re-joins them across requests)."""
    if s1 is PAT_BOTTOM:
        return s2
    if s2 is PAT_BOTTOM:
        return s1
    if s1 is s2 and domain.idempotent_joins:
        return s1  # x ⊔ x = x; the merge walk would rebuild s1
    if s1.interned and s2.interned and opcache.enabled():
        # open-coded opcache.cached: this is one of the engine's
        # hottest call sites, so skip the closure per call
        cache = _JOIN_CACHE
        key = (domain.did, s1.sid, s2.sid)
        entry = cache.get(key)
        if entry is None:
            value = _merge_join(s1, s2, domain)
            cache.put(key, (value, s1, s2))
            return value
        return entry[0]
    return _merge_join(s1, s2, domain)


def subst_widen(old, new, domain: LeafDomain, strict: bool = True):
    """Widening: the Pat(R) upper bound with the leaf join replaced by
    the leaf widening (§5).  The pattern component of the result is a
    prefix of ``old``'s, so widening chains stabilize structurally; the
    leaf chains stabilize by Theorem 7.1 (in strict mode)."""
    if old is PAT_BOTTOM:
        return new
    if new is PAT_BOTTOM:
        return old
    if old is new and domain.idempotent_joins:
        return old  # x V x = x for the leaf widening too
    if old.interned and new.interned and opcache.enabled():
        cache = _WIDEN_CACHE
        key = (domain.did, old.sid, new.sid, strict)
        entry = cache.get(key)
        if entry is None:
            value = _merge_widen(old, new, domain, strict)
            cache.put(key, (value, old, new))
            return value
        return entry[0]
    return _merge_widen(old, new, domain, strict)


def subst_le(s1, s2, domain: LeafDomain) -> bool:
    """Order: Cc(s1) ⊆ Cc(s2).  Exact when structures align; when s1
    has a leaf where s2 has a pattern, decided through the leaf domain
    if s2's subtree is sharing-free, else conservatively False.

    Memoized on interned identities (the engine's table scans compare
    the same candidate/entry pattern pairs across iterations)."""
    if s1 is s2:
        return True
    if s1 is PAT_BOTTOM:
        return True
    if s2 is PAT_BOTTOM:
        return False
    if s1.nvars != s2.nvars:
        raise ValueError("arity mismatch")
    if s1.interned and s2.interned and opcache.enabled():
        cache = _LE_CACHE
        key = (domain.did, s1.sid, s2.sid)
        entry = cache.get(key)
        if entry is None:
            value = _subst_le_impl(s1, s2, domain)
            cache.put(key, (value, s1, s2))
            return value
        return entry[0]
    return _subst_le_impl(s1, s2, domain)


def _subst_le_impl(s1, s2, domain: LeafDomain) -> bool:
    if s1.interned and s2.interned:
        native = _native_for(domain)
        if native is not None:
            return native.subst_le(s1, s2, domain.did,
                                   domain.max_or_width)
    return _PY.subst_le_walk(s1, s2, domain)


def subst_eq(s1, s2, domain: LeafDomain) -> bool:
    if s1 is s2:
        return True
    if s1 is PAT_BOTTOM or s2 is PAT_BOTTOM:
        return False
    # The structural == walk is only worth attempting when the
    # memoized hashes agree (with interned leaf grammars both hashes
    # are a few cached integer combines); differing hashes certify the
    # walk would fail, so fall straight through to the semantic check.
    if s1.nvars == s2.nvars and hash(s1) == hash(s2) and s1 == s2:
        return True
    return subst_le(s1, s2, domain) and subst_le(s2, s1, domain)


def display_subst(subst, domain: LeafDomain,
                  names: Optional[Sequence[str]] = None) -> str:
    """Human-readable rendering, one line per variable."""
    if subst is PAT_BOTTOM:
        return "<bottom>"
    lines = []
    refcounts = subst.refcounts()

    def node_text(index: int, depth: int) -> str:
        node = subst.nodes[index]
        tag = "s%d:" % index if refcounts[index] > 1 else ""
        if node.is_leaf:
            value_text = domain.display(node.value)
            if "\n" in value_text:
                value_text = "{%s}" % "; ".join(value_text.splitlines())
            return tag + value_text
        if depth > 8:
            return tag + "..."
        if not node.args:
            return tag + node.name
        inner = ",".join(node_text(a, depth + 1) for a in node.args)
        return "%s%s(%s)" % (tag, node.name, inner)

    for k in range(subst.nvars):
        name = names[k] if names else "X%d" % k
        lines.append("%s = %s" % (name, node_text(subst.sv[k], 0)))
    return "\n".join(lines)
