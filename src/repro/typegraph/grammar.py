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

import itertools
import threading
import weakref
from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..prolog.terms import Atom, Int, Struct, Term, Var
from . import opcache

__all__ = [
    "ANY", "INT", "FuncAlt", "Alt", "Grammar", "GrammarBuilder",
    "SymbolTable", "SYMBOLS", "grammar_of_key", "boundary_counters",
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


class SymbolTable:
    """Process-wide functor-key interner: ``(kind, name, arity)`` ->
    dense int.  Ids are per-process (never pickled); a grammar sent to
    a ``run_batch`` worker re-interns its symbols on arrival, and the
    arena kernels only ever compare ids from one process's table, so
    results do not depend on the numbering.

    Allocation is thread-safe: lookups stay a lock-free dict probe
    (ids are published to ``_ids`` only after the parallel arrays hold
    their row), and the probe-then-allocate of a *new* symbol runs
    under a lock so two threads can never mint two ids for one key.
    The native tier probes ``_ids`` directly and mirrors the rows."""

    __slots__ = ("_ids", "fkeys", "is_literal", "arities", "_lock")

    def __init__(self) -> None:
        self._ids: Dict[Tuple[str, str, int], int] = {}
        self.fkeys: List[Tuple[str, str, int]] = []
        self.is_literal: List[bool] = []  # integer-literal symbols
        self.arities: List[int] = []
        self._lock = threading.Lock()

    def sym(self, kind: str, name: str, arity: int) -> int:
        key = (kind, name, arity)
        sym = self._ids.get(key)
        if sym is None:
            with self._lock:
                sym = self._ids.get(key)
                if sym is None:
                    sym = len(self.fkeys)
                    self.fkeys.append(key)
                    self.is_literal.append(kind == "i")
                    self.arities.append(arity)
                    self._ids[key] = sym  # publish last
        return sym

    def find(self, kind: str, name: str, arity: int) -> Optional[int]:
        """The id of a functor key, or None if none was allocated."""
        return self._ids.get((kind, name, arity))

    def sym_of_alt(self, alt: FuncAlt) -> int:
        return self.sym("i" if alt.is_int else "f", alt.name,
                        len(alt.args))

    def __len__(self) -> int:
        return len(self.fkeys)


SYMBOLS = SymbolTable()


# -- canonical keys ----------------------------------------------------------
#
# An interned grammar is identified by its *canonical key*: the flat
# int encoding ``[n, per nonterminal: flags, nrows, (sym, args...)...]``
# of its normal form (nonterminals in canonical BFS order from the
# root 0, rows in fkey order, argument counts implied by the symbol
# table; flags bit 0 = ANY, bit 1 = INT), packed as native ``int32``
# bytes.  Both kernel tiers produce it directly from their int arrays,
# so a result is interned — and, on a miss, born as a handle — before
# any FuncAlt or frozenset exists.  Keys use process-local symbol ids,
# which is fine for a process-local table.

def _pack(flat: List[int]) -> bytes:
    return array("i", flat).tobytes()


def _unpack(key: bytes) -> array:
    flat = array("i")
    flat.frombytes(key)
    return flat


def _canonical_key(rules: Dict[int, FrozenSet[Alt]], root: int
                   ) -> Tuple[bytes, bool]:
    """``(key, identity)`` of a normalized grammar given by its rules:
    the canonical key, and whether the rules are already in canonical
    numbering (root 0, BFS order), i.e. whether decoding the key gives
    back exactly these rules."""
    sym_of_alt = SYMBOLS.sym_of_alt
    number = {root: 0}
    order = [root]
    rows = []
    qi = 0
    while qi < len(order):
        nt = order[qi]
        qi += 1
        flags = 0
        funcs = []
        for alt in rules[nt]:
            if alt is ANY:
                flags |= 1
            elif alt is INT:
                flags |= 2
            else:
                funcs.append((alt.fkey, sym_of_alt(alt), alt.args))
        funcs.sort()
        for _, _, args in funcs:
            for child in args:
                if child not in number:
                    number[child] = len(number)
                    order.append(child)
        rows.append((flags, funcs))
    flat = [len(order)]
    for flags, funcs in rows:
        flat.append(flags)
        flat.append(len(funcs))
        for _, sym, args in funcs:
            flat.append(sym)
            flat.extend(number[child] for child in args)
    identity = (len(order) == len(rules)
                and all(nt == i for i, nt in enumerate(order)))
    return _pack(flat), identity


def _key_rows(key: bytes):
    """``(flags, [(sym, args), ...])`` per nonterminal of a canonical
    key, in order."""
    flat = _unpack(key)
    arities = SYMBOLS.arities
    p = 1
    for _ in range(flat[0]):
        flags = flat[p]
        nrows = flat[p + 1]
        p += 2
        row = []
        for _ in range(nrows):
            sym = flat[p]
            q = p + 1 + arities[sym]
            row.append((sym, tuple(flat[p + 1:q])))
            p = q
        yield flags, row


def _rules_of_key(key: bytes) -> Dict[int, FrozenSet[Alt]]:
    """Decode a canonical key into rules (the inverse of
    :func:`_canonical_key` on canonically numbered grammars)."""
    fkeys = SYMBOLS.fkeys
    rules: Dict[int, FrozenSet[Alt]] = {}
    for nt, (flags, row) in enumerate(_key_rows(key)):
        alts: List[Alt] = []
        if flags & 1:
            alts.append(ANY)
        if flags & 2:
            alts.append(INT)
        for sym, args in row:
            kind, name, _ = fkeys[sym]
            alts.append(FuncAlt(name, args, kind == "i"))
        rules[nt] = frozenset(alts)
    return rules


def _obj_of_key(key: bytes) -> dict:
    """:meth:`Grammar.to_obj` straight from a canonical key: its rows
    are already in nonterminal and alternative order."""
    fkeys = SYMBOLS.fkeys
    rules = []
    for nt, (flags, row) in enumerate(_key_rows(key)):
        alts: List[list] = []
        if flags & 1:
            alts.append(["any"])
        if flags & 2:
            alts.append(["int"])
        for sym, args in row:
            kind, name, _ = fkeys[sym]
            alts.append(["i", name] if kind == "i"
                        else ["f", name, list(args)])
        rules.append([nt, alts])
    return {"root": 0, "rules": rules}


#: Boundary counters: interned grammars (and, counted by
#: :mod:`repro.domains.pattern`, substitutions) born as handles from a
#: canonical key, with their Python form not yet built, and handles
#: whose Python form was later decoded.  ``arena.stats()`` reports
#: them.
_COUNTS = {"grammar_handles": 0, "grammar_decodes": 0,
           "subst_handles": 0, "subst_decodes": 0}


def boundary_counters() -> Dict[str, int]:
    return dict(_COUNTS)


class Grammar:
    """An immutable, normalized tree grammar.  Construct through the
    ``g_*`` helpers, :class:`GrammarBuilder`, or the operations in
    :mod:`repro.typegraph.ops` — never by mutating ``rules``.

    Grammars returned by :func:`normalize` (hence by every public
    constructor and operation) are *interned*: structurally equal
    results are the same object, ``==`` is an identity check on the
    hot path, and ``hash`` is the hash of the canonical key.  ``interned``
    marks canonical instances; raw intermediates (e.g. the widening's
    vertex-view grammars) compare structurally, and every operation
    normalizes them on entry.

    An interned grammar a kernel built is born as a *handle*: it holds
    its ``gid`` and canonical key (``_ckey``), and ``rules`` is decoded
    from the key on first use (display, :func:`member`, pickling, the
    python tier's arena).  The kernels themselves only ever read the
    key.
    """

    __slots__ = ("_rules", "root", "_hash", "_key_cache", "_obj_cache",
                 "interned", "gid", "_arena", "_ckey", "__weakref__")

    def __init__(self, rules: Dict[int, FrozenSet[Alt]], root: int) -> None:
        self._rules = rules
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
        #: canonical key (set at interning; None on raw grammars).
        self._ckey: Optional[bytes] = None

    @property
    def rules(self) -> Dict[int, FrozenSet[Alt]]:
        rules = self._rules
        if rules is None:
            rules = self._rules = _rules_of_key(self._ckey)
            _COUNTS["grammar_decodes"] += 1
        return rules

    def alts(self, nt: int) -> FrozenSet[Alt]:
        return self.rules[nt]

    @property
    def root_alts(self) -> FrozenSet[Alt]:
        return self.rules[self.root]

    def is_bottom(self) -> bool:
        """Does this grammar denote the empty set of terms?"""
        key = self._ckey
        if key is not None:  # root flags and row count are both 0
            return key[4:12] == b"\0\0\0\0\0\0\0\0"
        return not self.rules[self.root]

    def is_any(self) -> bool:
        key = self._ckey
        if key is not None:
            return bool(key[4] & 1)  # the root's ANY flag
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
            if not self.interned:
                self._key_cache = key
        return key

    # -- canonical plain-object form (service serialization layer) ----------

    def to_obj(self) -> dict:
        """JSON-ready canonical encoding: rules sorted by nonterminal,
        alternatives in :func:`_alt_sort_key` order, so equal grammars
        encode to identical objects (content-addressable).

        Memoized on interned instances (the service layer re-encodes
        the same shared grammars constantly), and read off the
        canonical key without decoding the rules; treat the returned
        object as read-only."""
        if self._obj_cache is not None:
            return self._obj_cache
        if self.interned:
            obj = self._obj_cache = _obj_of_key(self._ckey)
            return obj
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
        return {"root": self.root, "rules": rules}

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
        # consistent with ==: a raw grammar equal to an interned one has
        # exactly its rules, so it normalizes to that very grammar
        if self._hash is None:
            canonical = self if self.interned else normalize(self)
            self._hash = hash(canonical._ckey)
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

#: The one process-wide intern table: canonical key -> the one shared
#: Grammar instance.  Both kernel tiers probe it with the key of a
#: result (the native tier reads ``_INTERN.data`` from C), so a repeat
#: result costs one dict probe and no object.  Weak values, so grammars
#: no longer referenced anywhere are collected and do not pin memory
#: for a long-lived service process.
_INTERN: "weakref.WeakValueDictionary[bytes, Grammar]" = \
    weakref.WeakValueDictionary()

#: Guards the probe-then-insert of :func:`intern_grammar` and
#: :func:`grammar_of_key`.  Canonicality is an *identity* invariant: an
#: unguarded check-then-insert race would let two threads intern two
#: distinct instances for one key, silently breaking ``==`` between
#: values produced on different threads.  The native tier's lock-free
#: probe only ever *reads*; its misses insert through
#: :func:`grammar_of_key`.
_INTERN_LOCK = threading.Lock()

#: Arena ids handed to newly interned grammars (monotonic, never
#: reused — see :attr:`Grammar.gid`).
_GIDS = itertools.count()

_new_grammar = object.__new__


def grammar_of_key(key: bytes) -> Grammar:
    """The interned grammar of a canonical key, born as a handle (rules
    not yet built) on a miss.  The kernels' one door into the intern
    table."""
    with _INTERN_LOCK:
        grammar = _INTERN.get(key)
        if grammar is None:
            grammar = _new_grammar(Grammar)
            grammar._rules = None
            grammar.root = 0
            grammar._hash = None
            grammar._key_cache = None
            grammar._obj_cache = None
            grammar._arena = None
            grammar._ckey = key
            grammar.interned = True
            grammar.gid = next(_GIDS)
            _INTERN[key] = grammar
            _COUNTS["grammar_handles"] += 1
    return grammar


def intern_grammar(grammar: Grammar) -> Grammar:
    """Canonical shared instance of an already-*normalized* grammar.

    The first grammar seen for a given canonical key becomes the
    canonical instance; later equal grammars resolve to it.  Interned
    grammars compare with a pure identity check, which is what makes
    the operation caches in :mod:`repro.typegraph.opcache` cheap to
    key.  A grammar outside canonical numbering resolves to the
    instance of its renumbering.  Thread-safe.
    """
    if grammar.interned:
        return grammar
    key, identity = _canonical_key(grammar.rules, grammar.root)
    if not identity:
        return grammar_of_key(key)
    with _INTERN_LOCK:
        canonical = _INTERN.get(key)
        if canonical is None:
            canonical = grammar
            grammar._ckey = key
            grammar.interned = True
            grammar.gid = next(_GIDS)
            _INTERN[key] = grammar
    return canonical


# -- normalization ----------------------------------------------------------


def _within_width(grammar: Grammar, max_or_width: int) -> bool:
    if grammar._ckey is None:
        return all(len(alts) <= max_or_width
                   for alts in grammar.rules.values())
    return all((flags & 1) + (flags >> 1) + len(row) <= max_or_width
               for flags, row in _key_rows(grammar._ckey))


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
