"""Deterministic regular tree grammars — the canonical form of types.

A :class:`Grammar` is the paper's type graph in grammar clothing
(§6.7): a set of rules ``N -> alt | alt | ...`` where an alternative is

* :data:`ANY` — any term (the paper's any-vertex),
* :data:`INT` — any integer (the "more types can be added easily"
  extension of §6.1; integer literals are nullary functors with
  ``literal <= INT`` subtyping),
* :class:`FuncAlt` — ``f(N1, ..., Nk)``.

Invariants maintained by :func:`normalize` (the grammar-side image of
the paper's cosmetic + principal-functor restrictions, §6.4–6.5):

* **Any absorption** (Isolated-Any): ``ANY`` never coexists with other
  alternatives.
* **Int absorption**: ``INT`` absorbs integer-literal alternatives.
* **Principal functor restriction**: at most one alternative per
  functor key, so grammars are deterministic top-down tree automata.
* Empty alternatives/nonterminals are pruned, unreachable nonterminals
  dropped, bisimilar nonterminals merged, and everything renumbered in
  BFS order — so structurally equal grammars compare equal with ``==``.

The widening (§7) does *not* live here; it works on the tree+back-edge
view in :mod:`repro.typegraph.graph`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..prolog.terms import Atom, Int, Struct, Term, Var
from . import opcache

__all__ = [
    "ANY", "INT", "FuncAlt", "Alt", "Grammar", "GrammarBuilder",
    "normalize", "intern_grammar", "g_any",
    "g_bottom", "g_int", "g_atom", "g_int_literal", "g_functor",
    "g_alternatives", "member", "pf_of",
]

class _AnyAlt:
    """The alternative recognizing every term (including variables)."""

    __slots__ = ()
    _instance: Optional["_AnyAlt"] = None

    def __new__(cls) -> "_AnyAlt":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Any"


class _IntAlt:
    """The alternative recognizing every integer."""

    __slots__ = ()
    _instance: Optional["_IntAlt"] = None

    def __new__(cls) -> "_IntAlt":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Integer"


ANY = _AnyAlt()
INT = _IntAlt()


class FuncAlt:
    """Alternative ``name(args...)``; ``is_int`` marks integer literals
    (then arity is 0 and ``name`` is the decimal text).

    A slotted value class rather than a frozen dataclass: alternatives
    are hashed constantly (frozenset rules, structural grammar keys),
    so the hash is computed once at construction and served from a
    slot."""

    __slots__ = ("name", "args", "is_int", "_hashv")

    def __init__(self, name: str, args: Tuple[int, ...] = (),
                 is_int: bool = False) -> None:
        self.name = name
        self.args = args
        self.is_int = is_int
        self._hashv = hash((name, args, is_int))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FuncAlt):
            return NotImplemented
        return (self._hashv == other._hashv and self.name == other.name
                and self.args == other.args and self.is_int == other.is_int)

    def __hash__(self) -> int:
        return self._hashv

    def __reduce__(self):
        return (FuncAlt, (self.name, self.args, self.is_int))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def fkey(self) -> Tuple[str, str, int]:
        """Functor identity: (kind, name, arity)."""
        return ("i" if self.is_int else "f", self.name, len(self.args))

    def __repr__(self) -> str:
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ",".join("N%d" % a for a in self.args))


Alt = object  # union of _AnyAlt | _IntAlt | FuncAlt
INT_FKEY = ("I", "$integer", 0)


def _alt_sort_key(alt: Alt) -> tuple:
    if alt is ANY:
        return (0, "", 0)
    if alt is INT:
        return (1, "", 0)
    assert isinstance(alt, FuncAlt)
    return (2,) + alt.fkey


class Grammar:
    """An immutable, normalized tree grammar.  Construct through the
    ``g_*`` helpers, :class:`GrammarBuilder`, or the operations in
    :mod:`repro.typegraph.ops` — never by mutating ``rules``.

    Grammars returned by :func:`normalize` (hence by every public
    constructor and operation) are *interned*: structurally equal
    results are the same object, ``==`` is an identity check on the
    hot path, and ``hash`` is a precomputed field.  ``interned`` marks
    canonical instances; raw intermediates (e.g. the widening's
    vertex-view grammars) compare structurally, and every operation
    normalizes them on entry.
    """

    __slots__ = ("rules", "root", "_hash", "_key_cache", "_obj_cache",
                 "interned", "gid", "_arena", "__weakref__")

    def __init__(self, rules: Dict[int, FrozenSet[Alt]], root: int) -> None:
        self.rules = rules
        self.root = root
        self._hash: Optional[int] = None
        self._key_cache: Optional[tuple] = None
        self._obj_cache: Optional[dict] = None
        self.interned = False
        #: dense per-process arena id, assigned at interning (-1 until
        #: then); never reused, so int-keyed memo tables stay sound
        #: even after the weak intern table drops the grammar.
        self.gid = -1
        #: lazily compiled :class:`repro.typegraph.arena.GrammarArena`.
        self._arena = None

    def alts(self, nt: int) -> FrozenSet[Alt]:
        return self.rules[nt]

    @property
    def root_alts(self) -> FrozenSet[Alt]:
        return self.rules[self.root]

    def is_bottom(self) -> bool:
        """Does this grammar denote the empty set of terms?"""
        return not self.rules[self.root]

    def is_any(self) -> bool:
        return ANY in self.rules[self.root]

    def num_nonterminals(self) -> int:
        return len(self.rules)

    def size(self) -> int:
        """Vertices + edges of the corresponding type graph, the measure
        used by the widening termination argument (§6.3)."""
        vertices = len(self.rules)
        edges = 0
        for alts in self.rules.values():
            for alt in alts:
                vertices += 1
                edges += 1  # or-vertex -> alternative
                if isinstance(alt, FuncAlt):
                    edges += len(alt.args)
        return vertices + edges

    def pf(self, nt: Optional[int] = None) -> FrozenSet[Tuple[str, str, int]]:
        """Principal-functor set of a nonterminal (§6.3); ANY yields
        the empty set, as for the paper's any-vertices."""
        alts = self.rules[self.root if nt is None else nt]
        keys = []
        for alt in alts:
            if alt is INT:
                keys.append(INT_FKEY)
            elif isinstance(alt, FuncAlt):
                keys.append(alt.fkey)
        return frozenset(keys)

    def _key(self) -> tuple:
        key = self._key_cache
        if key is None:
            key = (self.root,
                   tuple(sorted((nt, tuple(sorted(alts, key=_alt_sort_key)))
                                for nt, alts in self.rules.items())))
            self._key_cache = key
        return key

    # -- canonical plain-object form (service serialization layer) ----------

    def to_obj(self) -> dict:
        """JSON-ready canonical encoding: rules sorted by nonterminal,
        alternatives in :func:`_alt_sort_key` order, so equal grammars
        encode to identical objects (content-addressable).

        Memoized on interned instances (the service layer re-encodes
        the same shared grammars constantly); treat the returned
        object as read-only."""
        if self._obj_cache is not None:
            return self._obj_cache
        rules = []
        for nt in sorted(self.rules):
            alts = []
            for alt in sorted(self.rules[nt], key=_alt_sort_key):
                if alt is ANY:
                    alts.append(["any"])
                elif alt is INT:
                    alts.append(["int"])
                else:
                    assert isinstance(alt, FuncAlt)
                    if alt.is_int:
                        alts.append(["i", alt.name])
                    else:
                        alts.append(["f", alt.name, list(alt.args)])
            rules.append([nt, alts])
        obj = {"root": self.root, "rules": rules}
        if self.interned:
            self._obj_cache = obj
        return obj

    @classmethod
    def from_obj(cls, data: dict) -> "Grammar":
        """Inverse of :meth:`to_obj`.  Re-normalizes, so hand-edited or
        foreign encodings still yield a canonical grammar (for outputs
        of :meth:`to_obj` normalization is the identity)."""
        rules: Dict[int, FrozenSet[Alt]] = {}
        for nt, alts in data["rules"]:
            decoded: List[Alt] = []
            for alt in alts:
                kind = alt[0]
                if kind == "any":
                    decoded.append(ANY)
                elif kind == "int":
                    decoded.append(INT)
                elif kind == "i":
                    decoded.append(FuncAlt(alt[1], (), True))
                elif kind == "f":
                    decoded.append(FuncAlt(alt[1], tuple(alt[2])))
                else:
                    raise ValueError("unknown alternative kind: %r" % kind)
            rules[int(nt)] = frozenset(decoded)
        return normalize(cls(rules, int(data["root"])))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Grammar):
            return NotImplemented
        if self.interned and other.interned:
            return False  # interning makes structural equality identity
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __reduce__(self):
        # Canonical identity is per-process: an unpickled grammar must
        # re-enter the receiving process's intern table (or arrive as a
        # plain structural grammar), never claim to be interned there.
        return (_unpickle_grammar, (self.rules, self.root, self.interned))

    def __repr__(self) -> str:
        from .display import grammar_to_text
        return grammar_to_text(self)


class GrammarBuilder:
    """Mutable staging area for constructing grammars."""

    def __init__(self) -> None:
        self._rules: Dict[int, List[Alt]] = {}
        self._next = 0

    def fresh(self) -> int:
        nt = self._next
        self._next += 1
        self._rules[nt] = []
        return nt

    def add(self, nt: int, alt: Alt) -> None:
        self._rules[nt].append(alt)

    def set_alts(self, nt: int, alts: Iterable[Alt]) -> None:
        self._rules[nt] = list(alts)

    def raw(self, root: int) -> Grammar:
        """The staged rules as a raw (non-interned) grammar."""
        return Grammar({nt: frozenset(alts)
                        for nt, alts in self._rules.items()}, root)

    def finish(self, root: int,
               max_or_width: Optional[int] = None) -> Grammar:
        return normalize(self.raw(root), max_or_width)


def _unpickle_grammar(rules: Dict[int, FrozenSet[Alt]], root: int,
                      was_interned: bool) -> "Grammar":
    grammar = Grammar(rules, root)
    if was_interned:  # was normalized, so interning directly is sound
        return intern_grammar(grammar)
    return grammar


# -- interning ---------------------------------------------------------------

#: Process-wide weak intern table: canonical key -> the one shared
#: Grammar instance.  Weak values, so grammars no longer referenced
#: anywhere are collected and do not pin memory for a long-lived
#: service process.
_INTERN: "weakref.WeakValueDictionary[tuple, Grammar]" = \
    weakref.WeakValueDictionary()

#: Guards the probe-then-insert of :func:`intern_grammar` and the gid
#: counter.  Canonicality is an *identity* invariant: an unguarded
#: check-then-insert race would let two threads intern two distinct
#: instances for one structural key, silently breaking ``==`` between
#: values produced on different threads.  The analysis hot loops run
#: single-threaded per process (see :mod:`repro.typegraph.opcache`),
#: but interning is also reached from service control paths (cache
#: decode, request keying), so it takes the lock unconditionally — one
#: uncontended acquire per *newly seen* grammar is noise next to the
#: normalization that precedes it.
_INTERN_LOCK = threading.Lock()

#: Next arena id handed to a newly interned grammar (monotonic, never
#: reused — see :attr:`Grammar.gid`).
_NEXT_GID = 0


def intern_grammar(grammar: Grammar) -> Grammar:
    """Canonical shared instance of an already-*normalized* grammar.

    The first grammar seen for a given structural key becomes the
    canonical instance (with its hash precomputed); later structurally
    equal grammars resolve to it.  Interned grammars compare with a
    pure identity check, which is what makes the operation caches in
    :mod:`repro.typegraph.opcache` cheap to key.  Thread-safe.
    """
    global _NEXT_GID
    if grammar.interned:
        return grammar
    key = grammar._key()
    with _INTERN_LOCK:
        # setdefault hashes the (large, uncached) key tuple once,
        # where a get-then-insert would hash it twice more; the
        # grammar's own hash fills in lazily from the cached key.
        canonical = _INTERN.setdefault(key, grammar)
        if canonical is grammar:
            grammar.interned = True
            grammar.gid = _NEXT_GID
            _NEXT_GID += 1
    return canonical


# -- normalization ----------------------------------------------------------


def _within_width(grammar: Grammar, max_or_width: int) -> bool:
    return all(len(alts) <= max_or_width
               for alts in grammar.rules.values())


def normalize(grammar: Grammar,
              max_or_width: Optional[int] = None) -> Grammar:
    """Prune empties, absorb, cap or-width, merge bisimilar
    nonterminals, renumber in BFS order.  The result is interned
    (:func:`intern_grammar`); re-normalizing an interned grammar that
    already satisfies the width cap is free.

    Runs on the active tier's flat-int pipeline
    (:func:`repro.typegraph.arena.arena_normalize`).  It is also how
    every public operation takes a raw (non-interned) operand: each
    normalizes it once on entry, so the memo tables and the kernels
    only ever see interned grammars."""
    if grammar.interned and (max_or_width is None
                             or _within_width(grammar, max_or_width)):
        return grammar
    return arena.arena_normalize(grammar, max_or_width)


# -- constructors -----------------------------------------------------------

_G_ANY = intern_grammar(Grammar({0: frozenset([ANY])}, 0))
_G_BOTTOM = intern_grammar(Grammar({0: frozenset()}, 0))
_G_INT = intern_grammar(Grammar({0: frozenset([INT])}, 0))

# strong caches for the tiny flat constructors called in hot loops
_ATOM_CACHE: Dict[str, Grammar] = {}
_INT_LITERAL_CACHE: Dict[int, Grammar] = {}


def g_any() -> Grammar:
    """The type of all terms."""
    return _G_ANY


def g_bottom() -> Grammar:
    """The empty type."""
    return _G_BOTTOM


def g_int() -> Grammar:
    """The type of all integers."""
    return _G_INT


def g_atom(name: str) -> Grammar:
    """The singleton type of one atom."""
    grammar = _ATOM_CACHE.get(name)
    if grammar is None:
        grammar = intern_grammar(Grammar({0: frozenset([FuncAlt(name)])}, 0))
        if len(_ATOM_CACHE) < 4096:
            _ATOM_CACHE[name] = grammar
    return grammar


def g_int_literal(value: int) -> Grammar:
    """The singleton type of one integer literal."""
    grammar = _INT_LITERAL_CACHE.get(value)
    if grammar is None:
        grammar = intern_grammar(
            Grammar({0: frozenset([FuncAlt(str(value), (), True)])}, 0))
        if len(_INT_LITERAL_CACHE) < 4096:
            _INT_LITERAL_CACHE[value] = grammar
    return grammar


def _embed(builder: GrammarBuilder, grammar: Grammar) -> int:
    """Copy ``grammar`` into ``builder``; return its root nt."""
    mapping: Dict[int, int] = {}

    def visit(nt: int) -> int:
        if nt in mapping:
            return mapping[nt]
        new = builder.fresh()
        mapping[nt] = new
        for alt in grammar.rules[nt]:
            if isinstance(alt, FuncAlt):
                builder.add(new, FuncAlt(alt.name,
                                         tuple(visit(a) for a in alt.args),
                                         alt.is_int))
            else:
                builder.add(new, alt)
        return new

    return visit(grammar.root)


def g_functor(name: str, children: Sequence[Grammar],
              max_or_width: Optional[int] = None) -> Grammar:
    """The type ``name(c1, ..., cn)``.

    Memoized on interned child identities — collapsing pattern
    subtrees into grammars (``value_of`` in the Pat(R) domain) rebuilds
    the same functor types constantly.
    """
    children = tuple(children)
    if not all(c.interned for c in children):
        children = tuple(map(normalize, children))
    cache = opcache.cache_for("g_functor")
    key = (name, tuple(c.gid for c in children), max_or_width)
    value = cache.get(key)
    if value is None:
        value = arena.arena_functor(name, children, max_or_width)
        cache.put(key, value)
    return value


def g_alternatives(grammars: Sequence[Grammar],
                   max_or_width: Optional[int] = None) -> Grammar:
    """Disjunction of grammars (requires pairwise-distinct principal
    functors; use :func:`repro.typegraph.ops.g_union` otherwise)."""
    from .ops import g_union
    result = g_bottom()
    for grammar in grammars:
        result = g_union(result, grammar, max_or_width)
    return result


def subgrammar(grammar: Grammar, nt: int) -> Grammar:
    """The grammar rooted at nonterminal ``nt``.

    Memoized on interned grammars — abstract unification splits the
    same argument positions out of the same shared grammars on every
    clause iteration.  A raw grammar's ``nt`` names a nonterminal of
    its own numbering, so the view rooted there is what gets
    normalized.
    """
    if not grammar.interned:
        return normalize(Grammar(grammar.rules, nt))
    if nt == grammar.root:
        return grammar
    cache = opcache.cache_for("subgrammar")
    key = (grammar.gid, nt)
    value = cache.get(key)
    if value is None:
        value = arena.arena_subgrammar(grammar, nt)
        cache.put(key, value)
    return value


# -- membership -------------------------------------------------------------

def member(term: Term, grammar: Grammar, nt: Optional[int] = None) -> bool:
    """Is ``term`` in the denotation (§6.2)?  Variables match only ANY
    (type graphs denote instantiation-closed sets; a free variable is
    described only by Any — the paper's qsort discussion, §2)."""
    node = grammar.root if nt is None else nt
    alts = grammar.rules[node]
    if ANY in alts:
        return True
    if isinstance(term, Var):
        return False
    if isinstance(term, Int):
        if INT in alts:
            return True
        return any(isinstance(a, FuncAlt) and a.is_int
                   and a.name == str(term.value) for a in alts)
    if isinstance(term, Atom):
        return any(isinstance(a, FuncAlt) and not a.is_int
                   and a.name == term.name and not a.args for a in alts)
    assert isinstance(term, Struct)
    for alt in alts:
        if isinstance(alt, FuncAlt) and not alt.is_int \
                and alt.name == term.name and alt.arity == term.arity:
            return all(member(sub, grammar, child)
                       for sub, child in zip(term.args, alt.args))
    return False


def pf_of(grammar: Grammar) -> FrozenSet[Tuple[str, str, int]]:
    """Principal-functor set of the root."""
    return grammar.pf()


# Imported last: arena.py imports the names above, and the functions
# here only touch the module at call time, so the cycle is harmless.
from . import arena  # noqa: E402
