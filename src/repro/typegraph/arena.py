"""Arena-compiled type-graph kernel: flat integer grammars, bitset
reachability, and iterative core operations.

PRs 2–3 removed *redundant* type-graph operations (interning + memo
caches, differential clause re-evaluation); what remains on the hot
path is the per-call cost of the operations themselves, which walked
linked ``Grammar``/``FuncAlt`` Python objects with dict-backed tuple
memos.  This module lowers every interned, normalized grammar into an
immutable **arena** and re-runs the core algorithms as iterative
worklist loops over plain ints:

* **Symbols** — functor keys ``(kind, name, arity)`` become dense ints
  from a process-wide :class:`SymbolTable`, so comparing functors is an
  int compare instead of a string-tuple compare, and alternative lists
  arrive pre-sorted in canonical (:func:`_alt_sort_key`) order.
* **Nonterminals** — already dense (normalization renumbers in BFS
  order), so per-nonterminal data lives in flat tuples indexed by
  position, and nonterminal *sets* (ANY/INT membership, nonemptiness,
  reachability) are Python-int bitsets: one ``(mask >> nt) & 1`` per
  test, one ``|`` per union.
* **Operations** — inclusion is an iterative pair-worklist over the
  synchronized product (pairs encoded as ``n1 * n2 + n2``-style ints);
  union/intersection build their product rules directly as int tuples;
  ``subgrammar`` is a bitset-guided BFS renumbering that skips
  normalization entirely (sub-automata of a minimized automaton are
  minimized); normalization itself — the single hottest function in
  the PR3 profile — runs nonemptiness, pruning, or-width capping,
  partition refinement, and BFS renumbering over int arrays, touching
  ``FuncAlt`` objects only once to build the final interned result.

Results are **bit-identical** to the Grammar-level reference
implementations in :mod:`repro.typegraph.reference`
(``tests/test_arena_properties.py`` proves it with hypothesis; the
benchmark trajectory compares full-engine fingerprints).
:func:`configure` (``enabled=False``) routes every operation back
through the reference paths, which is how those tests reach them.

This module holds what both tiers share: tier selection, the symbol
table, the per-grammar arena, the flat-int intern probe the C tier
returns through, and the dispatch functions (``arena_le`` and the
rest).  Each tier's kernels live in a module of its own, imported when
that tier is selected.

Execution tiers
---------------

The arena kernels themselves run in one of two tiers, selected by
``REPRO_ARENA_KERNEL`` (or ``configure(kernel=...)``):

* ``python`` — iterative worklist loops over Python-int bitsets, in
  :mod:`repro.typegraph._python` (published as :data:`PYTHON`).
  Always available; the no-compiler fallback and the cross-tier
  oracle.  A native-tier process never imports it.
* ``native`` — a small C extension (:mod:`repro.typegraph._native`,
  published as :data:`NATIVE`) compiled lazily with the system C
  compiler, which additionally serves the memoized grammar
  *operations* (``g_le``/``g_union``/``g_intersect``/``g_functor``/
  ``subgrammar``), the widening and the Pat(Type) pattern walks from
  C-side tables.  Falls back to ``python`` when no toolchain is
  available.

``auto`` (the default) resolves like ``native``.  An unrecognised
``REPRO_ARENA_KERNEL`` value also resolves like ``auto``, and
:func:`kernel_status` records the rejected value under its
fallbacks.  Both tiers return the *identical interned* ``Grammar``
objects — they share the canonical renumbering and the process-wide
intern tables, so ``gid``s, fingerprints, and serialized forms are
tier-oblivious (``tests/test_kernel_tiers.py`` sweeps them).
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List, Optional, Tuple

from .grammar import ANY, INT, FuncAlt, Grammar, intern_grammar

__all__ = [
    "SymbolTable", "SYMBOLS", "GrammarArena", "arena_of", "decompile",
    "arena_le", "arena_union", "arena_intersect", "arena_functor",
    "arena_subgrammar", "arena_normalize",
    "enabled", "configure", "stats", "snapshot",
    "kernel", "available_kernels", "kernel_status",
]


#: Whether the arena kernels serve the type-graph operations; the
#: oracle tests switch it off through :func:`configure`.
_ENABLED = True

#: Process-wide counters (the engine diffs :func:`snapshot` across a
#: run to attribute compilation work to it).
_COMPILES = 0
_INDEX_BUILDS = 0

# -- kernel tier selection ---------------------------------------------------

_KERNEL_TIERS = ("python", "native")

#: Per-tier fallback reasons for :func:`kernel_status` (an unknown
#: ``REPRO_ARENA_KERNEL`` value is recorded under its own name).
_KERNEL_REASONS: Dict[str, str] = {}


def _env_kernel() -> str:
    value = os.environ.get("REPRO_ARENA_KERNEL", "").strip().lower()
    if value in _KERNEL_TIERS or value in ("auto", ""):
        return value or "auto"
    _KERNEL_REASONS[value] = (
        "unknown REPRO_ARENA_KERNEL value %r (expected python, native "
        "or auto); resolved as 'auto'" % (value,))
    return "auto"


#: Requested tier ("auto" resolves on first use) and the resolved
#: active tier.
_KERNEL_REQUESTED = _env_kernel()
_KERNEL_ACTIVE: Optional[str] = None

#: The loaded native helper module (None = python tier).  Read
#: directly by the dispatch sites in ``ops.py`` / ``grammar.py`` /
#: ``pattern.py`` — a plain module-global read, reset whenever the
#: tier is re-resolved.
NATIVE = None

#: The python tier's kernel module (:mod:`repro.typegraph._python`),
#: imported when the tier resolves to ``python`` and None until then,
#: so a native-tier process never compiles it.  Only read where
#: ``NATIVE`` is None.
PYTHON = None


def _try_native():
    try:
        from . import _native
        mod, reason = _native.load()
        if mod is None:
            return None, "native tier unavailable: %s" % (reason,)
        return _native, None
    except Exception as exc:
        return None, "native tier unavailable: %s" % (exc,)


def _resolve_kernel() -> str:
    """Resolve the requested tier to an available one (recording why
    the native tier was skipped), load its helper module, and publish
    the module globals the dispatch sites read."""
    global _KERNEL_ACTIVE, NATIVE, PYTHON
    if _KERNEL_ACTIVE is not None:
        return _KERNEL_ACTIVE
    NATIVE = None
    _KERNEL_ACTIVE = "python"
    if _KERNEL_REQUESTED != "python":
        mod, reason = _try_native()
        if mod is None:
            _KERNEL_REASONS["native"] = reason
        else:
            NATIVE = mod
            _KERNEL_ACTIVE = "native"
    if NATIVE is None and PYTHON is None:
        from . import _python
        PYTHON = _python
    return _KERNEL_ACTIVE


def kernel() -> str:
    """The active kernel tier ("python" or "native"), resolving the
    requested tier on first use."""
    return _KERNEL_ACTIVE or _resolve_kernel()


def available_kernels() -> List[str]:
    """Tiers that can actually run in this process/environment."""
    tiers = ["python"]
    if _KERNEL_ACTIVE == "native" or _try_native()[0] is not None:
        tiers.append("native")
    return tiers


def kernel_status() -> Dict[str, object]:
    """Requested vs. active tier plus the recorded fallback reasons —
    what ``repro profile`` and the bench reports surface."""
    return {
        "requested": _KERNEL_REQUESTED,
        "active": kernel(),
        "enabled": _ENABLED,
        "fallbacks": dict(_KERNEL_REASONS),
    }


# -- per-kernel profiling ----------------------------------------------------

#: ``op -> [calls, seconds]`` for the python tier; the native
#: tier keeps equivalent counters in C.  Timing is gated behind
#: :func:`profile_kernels` so the hot path pays nothing by default.
_KCOUNTS: Dict[str, list] = {}
_KPROF = False


def profile_kernels(enable: bool = True) -> None:
    """Turn per-op kernel timing on/off (used by ``repro profile``)."""
    global _KPROF
    _KPROF = bool(enable)
    if NATIVE is not None:
        NATIVE.set_profile(enable)


def kernel_counters() -> Dict[str, Dict[str, float]]:
    """Per-op ``{calls, seconds}`` for the active tier (native counters
    are read from the C module)."""
    merged = {op: {"calls": int(cell[0]), "seconds": cell[1]}
              for op, cell in _KCOUNTS.items()}
    if NATIVE is not None:
        for op, cell in NATIVE.kernel_counters().items():
            entry = merged.setdefault(op, {"calls": 0, "seconds": 0.0})
            entry["calls"] += cell["calls"]
            entry["seconds"] += cell["seconds"]
    return merged


def reset_kernel_counters() -> None:
    _KCOUNTS.clear()
    if NATIVE is not None:
        NATIVE.reset_kernel_counters()


def _timed(op: str, impl, *args):
    from time import perf_counter
    start = perf_counter()
    try:
        return impl(*args)
    finally:
        cell = _KCOUNTS.get(op)
        if cell is None:
            cell = _KCOUNTS[op] = [0, 0.0]
        cell[0] += 1
        cell[1] += perf_counter() - start


def enabled() -> bool:
    return _ENABLED


def configure(enabled: Optional[bool] = None,
              kernel: Optional[str] = None) -> None:
    """Toggle the arena kernels at runtime (reference paths remain
    available and bit-identical, so flipping mid-process is safe), and
    select the execution tier (``python``/``native``/``auto``) with
    the same fallback semantics as the ``REPRO_ARENA_KERNEL``
    environment variable."""
    global _ENABLED, _KERNEL_REQUESTED, _KERNEL_ACTIVE
    if enabled is not None:
        _ENABLED = bool(enabled)
    if kernel is not None:
        kernel = kernel.strip().lower()
        if kernel not in _KERNEL_TIERS and kernel != "auto":
            raise ValueError("unknown arena kernel tier: %r" % (kernel,))
        _KERNEL_REQUESTED = kernel
        _KERNEL_ACTIVE = None
        _KERNEL_REASONS.clear()
        _resolve_kernel()


def stats() -> Dict[str, int]:
    """Process-wide arena counters: grammar compilations, widening
    step-index builds, and distinct functor symbols interned.  With
    the native tier active the C-side compilation counters are folded
    in, so the engine's attribution stays tier-oblivious."""
    compiles = _COMPILES
    index_builds = _INDEX_BUILDS
    if NATIVE is not None:
        native_stats = NATIVE.stats()
        compiles += native_stats.get("compiles", 0)
        index_builds += native_stats.get("index_builds", 0)
    return {"compiles": compiles, "index_builds": index_builds,
            "symbols": len(SYMBOLS.fkeys)}


def snapshot() -> int:
    """Aggregate compilation count (grammar arenas + step indexes)."""
    counters = stats()
    return counters["compiles"] + counters["index_builds"]


# -- symbol table ------------------------------------------------------------

class SymbolTable:
    """Process-wide functor-key interner: ``(kind, name, arity)`` ->
    dense int.  Ids are per-process (never pickled); a grammar sent to
    a ``run_batch`` worker re-interns its symbols on arrival, and the
    arena kernels only ever compare ids from one process's table, so
    results do not depend on the numbering.

    Allocation is thread-safe: lookups stay a lock-free dict probe
    (ids are published to ``_ids`` only after the parallel arrays hold
    their row), and the probe-then-allocate of a *new* symbol runs
    under a lock so two threads can never mint two ids for one key."""

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

    def sym_of_alt(self, alt: FuncAlt) -> int:
        return self.sym("i" if alt.is_int else "f", alt.name,
                        len(alt.args))

    def __len__(self) -> int:
        return len(self.fkeys)


SYMBOLS = SymbolTable()

#: Flat-int-keyed view of the grammar intern table: normalization
#: probes it with an integer encoding of its (already canonical)
#: result before constructing any FuncAlt/frozenset objects, so repeat
#: normalizations return the canonical instance object-free.  Keys use
#: process-local symbol ids, which is fine for a process-local index.
#: Unlocked by design: it is a pure accelerator in front of
#: ``intern_grammar`` (which *is* locked), so the worst a
#: check-then-insert race can do is recompute a normalization — both
#: threads still receive the one canonical instance, and the last
#: (identical) insert wins.
_INTKEY_INTERN: "weakref.WeakValueDictionary[tuple, Grammar]" = \
    weakref.WeakValueDictionary()

#: Decoded-alternative cache for :func:`_grammar_from_intkey`: functor
#: alternatives repeat heavily across grammars (``.``/2, ``[]``/0,
#: ...), so reusing one FuncAlt per ``(sym, args)`` skips both the
#: construction and its hash.  FuncAlts are tiny and compare by value,
#: so sharing is purely an accelerator; the size cap bounds a
#: long-lived process.
_ALT_CACHE: Dict[tuple, "FuncAlt"] = {}
_ALT_CACHE_MAX = 1 << 18


# -- the per-grammar arena ---------------------------------------------------

class GrammarArena:
    """Immutable flat-int view of one normalized grammar.

    ``syms[nt]`` / ``args[nt]`` are parallel tuples of the functor
    alternatives, pre-sorted in canonical fkey order (so BFS
    renumbering never sorts); ``by_sym[nt]`` maps symbol -> argument
    tuple for the product constructions; ``any_mask`` / ``int_mask``
    are bitsets of the nonterminals carrying ANY / INT alternatives.
    ``reach`` (lazy) holds per-nonterminal reachability bitsets.
    """

    __slots__ = ("n", "any_mask", "int_mask", "syms", "args", "by_sym",
                 "nt_index", "_reach")

    def __init__(self, n: int, any_mask: int, int_mask: int,
                 syms: tuple, args: tuple, by_sym: tuple,
                 nt_index: Optional[Dict[int, int]] = None) -> None:
        self.n = n
        self.any_mask = any_mask
        self.int_mask = int_mask
        self.syms = syms
        self.args = args
        self.by_sym = by_sym
        #: original-nonterminal -> dense index, or None when identity
        #: (normalized grammars are already dense with root 0).
        self.nt_index = nt_index
        self._reach: Optional[Tuple[int, ...]] = None

    def index_of(self, nt: int) -> int:
        if self.nt_index is None:
            return nt
        return self.nt_index[nt]

    def reach(self) -> Tuple[int, ...]:
        """``reach()[nt]`` is the bitset of nonterminals reachable from
        ``nt`` (including itself) — fixpoint of bitset unions."""
        if self._reach is None:
            n = self.n
            succ = [0] * n
            for i in range(n):
                mask = 0
                for arg_tuple in self.args[i]:
                    for child in arg_tuple:
                        mask |= 1 << child
                succ[i] = mask
            reach = [(1 << i) | succ[i] for i in range(n)]
            changed = True
            while changed:
                changed = False
                for i in range(n):
                    acc = reach[i]
                    todo = succ[i]
                    while todo:
                        low = todo & -todo
                        acc |= reach[low.bit_length() - 1]
                        todo ^= low
                    if acc != reach[i]:
                        reach[i] = acc
                        changed = True
            self._reach = tuple(reach)
        return self._reach


def arena_of(grammar: Grammar) -> GrammarArena:
    """The (cached) arena of an interned grammar."""
    arena = grammar._arena
    if arena is None:
        arena = _compile(grammar)
        grammar._arena = arena
    return arena


def _compile(grammar: Grammar) -> GrammarArena:
    global _COMPILES
    _COMPILES += 1
    rules = grammar.rules
    n = len(rules)
    root = grammar.root
    # Normalized grammars are dense 0..n-1 with root 0; fall back to an
    # explicit index for anything else (e.g. hand-built interned
    # literals are dense too, so this is effectively always identity).
    if root == 0 and n and all(0 <= nt < n for nt in rules):
        nt_index = None
        dense = rules
    else:
        nt_index = {root: 0}
        for nt in sorted(rules):
            if nt != root:
                nt_index[nt] = len(nt_index)
        dense = {nt_index[nt]: alts for nt, alts in rules.items()}
    any_mask = 0
    int_mask = 0
    syms: List[tuple] = [()] * n
    args: List[tuple] = [()] * n
    by_sym: List[dict] = [None] * n
    sym_of_alt = SYMBOLS.sym_of_alt
    fkeys = SYMBOLS.fkeys
    remap = (None if nt_index is None
             else nt_index.__getitem__)
    for i in range(n):
        funcs = []
        for alt in dense[i]:
            if alt is ANY:
                any_mask |= 1 << i
            elif alt is INT:
                int_mask |= 1 << i
            else:
                if remap is None:
                    funcs.append((sym_of_alt(alt), alt.args))
                else:
                    funcs.append((sym_of_alt(alt),
                                  tuple(map(remap, alt.args))))
        funcs.sort(key=lambda pair: fkeys[pair[0]])
        syms[i] = tuple(pair[0] for pair in funcs)
        args[i] = tuple(pair[1] for pair in funcs)
        by_sym[i] = dict(funcs)
    return GrammarArena(n, any_mask, int_mask, tuple(syms), tuple(args),
                        tuple(by_sym), nt_index)


def decompile(arena: GrammarArena) -> Grammar:
    """Reconstruct a plain (raw, non-interned) grammar from an arena —
    the inverse of :func:`_compile` up to interning (round-trip
    property: ``decompile(arena_of(g)).rules == g.rules``)."""
    fkeys = SYMBOLS.fkeys
    rules: Dict[int, frozenset] = {}
    for i in range(arena.n):
        alts: List[object] = []
        if (arena.any_mask >> i) & 1:
            alts.append(ANY)
        if (arena.int_mask >> i) & 1:
            alts.append(INT)
        for sym, arg_tuple in zip(arena.syms[i], arena.args[i]):
            kind, name, _ = fkeys[sym]
            alts.append(FuncAlt(name, arg_tuple, kind == "i"))
        rules[i] = frozenset(alts)
    return Grammar(rules, 0)


# -- normalization core ------------------------------------------------------
#
# The shared back half of every arena operation: raw integer rules in,
# interned Grammar (with its arena attached) out.  ``items`` maps an
# arbitrary int key to ``(has_any, has_int, [(sym, arg_keys), ...])``.

def _normalize_core(items: Dict[int, tuple], root: int,
                    max_or_width: Optional[int]) -> Grammar:
    keys = sorted(items)
    index = {key: i for i, key in enumerate(keys)}
    n = len(keys)
    any_f = [False] * n
    int_f = [False] * n
    funcs: List[list] = [None] * n
    for key in keys:
        has_any, has_int, alts = items[key]
        i = index[key]
        any_f[i] = has_any
        int_f[i] = has_int
        seen_alts = set()
        mapped = []
        for sym, arg_keys in alts:
            entry = (sym, tuple(index[a] for a in arg_keys))
            if entry not in seen_alts:  # sets dedup like frozenset did
                seen_alts.add(entry)
                mapped.append(entry)
        funcs[i] = mapped
    return _normalize_dense(any_f, int_f, funcs, index[root],
                            max_or_width)


def _normalize_dense(any_f: List[bool], int_f: List[bool],
                     funcs: List[list], root_i: int,
                     max_or_width: Optional[int],
                     prune: bool = True) -> Grammar:
    """Normalization over dense arrays: ``funcs[i]`` lists the functor
    alternatives of nonterminal ``i`` as ``(sym, arg_index_tuple)``
    (duplicate-free), on the active tier.  The lists may be mutated.

    ``prune=False`` skips the nonemptiness pass — sound for
    constructions that cannot produce empty nonterminals from
    normalized operands (union merges derive a superset of either
    side; functor embeds copy nonempty grammars)."""
    if NATIVE is not None:
        return NATIVE.normalize_dense(any_f, int_f, funcs, root_i,
                                      max_or_width, prune)
    return PYTHON.normalize_dense(any_f, int_f, funcs, root_i,
                                  max_or_width, prune)


# -- native-tier bridge ------------------------------------------------------
#
# The C extension keeps only integers; these callbacks are its one
# door back into the Python object layer.  ``_grammar_from_intkey``
# funnels every C-side construction through the same flat-int intern
# probe as :func:`_renumber_and_intern`, so the native tier returns
# the identical interned instances as the python tier.

def _grammar_from_intkey(int_key: tuple) -> Grammar:
    """Decode a canonical flat int key (``_renumber_and_intern``'s
    encoding: ``[out_n, per nt: flags, nrows, (sym, args...)...]``,
    argument counts implied by the symbol table) into the interned
    Grammar, building objects only on an intern miss."""
    cached_grammar = _INTKEY_INTERN.get(int_key)
    if cached_grammar is not None:
        return cached_grammar
    fkeys = SYMBOLS.fkeys
    arities = SYMBOLS.arities
    alt_cache = _ALT_CACHE
    out_n = int_key[0]
    p = 1
    final: Dict[int, frozenset] = {}
    out_any = 0
    out_int = 0
    out_syms: List[tuple] = [()] * out_n
    out_args: List[tuple] = [()] * out_n
    out_by: List[dict] = [None] * out_n
    key_items: List[tuple] = [None] * out_n
    for nt in range(out_n):
        flags = int_key[p]
        nrows = int_key[p + 1]
        p += 2
        alt_objs: List[object] = []
        if flags & 1:
            alt_objs.append(ANY)
            out_any |= 1 << nt
        if flags & 2:
            alt_objs.append(INT)
            out_int |= 1 << nt
        syms_row: List[int] = []
        args_row: List[tuple] = []
        for _ in range(nrows):
            sym = int_key[p]
            q = p + 1 + arities[sym]
            renum = int_key[p + 1:q]  # tuple slice is already a tuple
            p = q
            alt = alt_cache.get((sym, renum))
            if alt is None:
                kind, name, _ = fkeys[sym]
                alt = FuncAlt(name, renum, kind == "i")
                if len(alt_cache) >= _ALT_CACHE_MAX:
                    alt_cache.clear()
                alt_cache[(sym, renum)] = alt
            alt_objs.append(alt)
            syms_row.append(sym)
            args_row.append(renum)
        out_syms[nt] = tuple(syms_row)
        out_args[nt] = tuple(args_row)
        out_by[nt] = dict(zip(syms_row, args_row))
        key_items[nt] = (nt, tuple(alt_objs))
        final[nt] = frozenset(alt_objs)
    raw = Grammar(final, 0)
    # rows arrive in canonical fkey order, so alt_objs is already in
    # _alt_sort_key order — assemble the structural key without the
    # per-frozenset sort intern_grammar would otherwise pay for.
    raw._key_cache = (0, tuple(key_items))
    grammar = intern_grammar(raw)
    if grammar._arena is None:
        global _COMPILES
        _COMPILES += 1
        grammar._arena = GrammarArena(
            out_n, out_any, out_int, tuple(out_syms), tuple(out_args),
            tuple(out_by))
    _INTKEY_INTERN[int_key] = grammar
    return grammar


def _arena_flat(grammar: Grammar) -> List[int]:
    """Flat operand encoding handed to the C tier on first sight of a
    gid: ``[n, root, per nt: flags, nrows, (sym, nargs, args...)...]``
    with rows in the arena's canonical fkey order."""
    a = arena_of(grammar)
    flat = [a.n, a.index_of(grammar.root)]
    any_mask = a.any_mask
    int_mask = a.int_mask
    for i in range(a.n):
        flat.append(((any_mask >> i) & 1) | (((int_mask >> i) & 1) << 1))
        syms = a.syms[i]
        args = a.args[i]
        flat.append(len(syms))
        for sym, arg_tuple in zip(syms, args):
            flat.append(sym)
            flat.append(len(arg_tuple))
            flat.extend(arg_tuple)
    return flat


def _sym_rows(start: int) -> List[Tuple[str, str, int]]:
    """Symbol-table rows from ``start`` on (the C registry mirrors the
    table incrementally; ids are dense and append-only)."""
    return list(SYMBOLS.fkeys[start:])


def _sym_f(name: str, arity: int) -> int:
    return SYMBOLS.sym("f", name, arity)


def arena_normalize(grammar: Grammar,
                    max_or_width: Optional[int]) -> Grammar:
    """Normalize an arbitrary raw grammar through the int pipeline
    (bit-identical to the reference :func:`~.grammar.normalize`)."""
    if _KPROF and NATIVE is None:
        return _timed("normalize", _arena_normalize_impl, grammar,
                      max_or_width)
    return _arena_normalize_impl(grammar, max_or_width)


def _arena_normalize_impl(grammar: Grammar,
                          max_or_width: Optional[int]) -> Grammar:
    sym_of_alt = SYMBOLS.sym_of_alt
    items: Dict[int, tuple] = {}
    for nt, alts in grammar.rules.items():
        has_any = False
        has_int = False
        funcs = []
        for alt in alts:
            if alt is ANY:
                has_any = True
            elif alt is INT:
                has_int = True
            else:
                funcs.append((sym_of_alt(alt), alt.args))
        items[nt] = (has_any, has_int, funcs)
    return _normalize_core(items, grammar.root, max_or_width)


# -- the tier-dispatched operations ------------------------------------------
#
# Each runs on the native tier when it is loaded and on the python
# tier's loops (:mod:`repro.typegraph._python`) otherwise; both return
# the identical interned grammar.

def arena_le(g1: Grammar, g2: Grammar) -> bool:
    """Exact inclusion as an iterative worklist over the synchronized
    product: every reachable pair must locally match (determinism makes
    the local condition complete)."""
    if NATIVE is not None:
        return NATIVE.arena_le(g1, g2)
    if _KPROF:
        return _timed("le", PYTHON.arena_le, g1, g2)
    return PYTHON.arena_le(g1, g2)


def arena_union(g1: Grammar, g2: Grammar,
                max_or_width: Optional[int]) -> Grammar:
    """Pointwise-merged union (principal functor restriction) as an
    iterative product construction over int keys, emitting the dense
    arrays normalization consumes directly."""
    if NATIVE is not None:
        return NATIVE.arena_union(g1, g2, max_or_width)
    if _KPROF:
        return _timed("union", PYTHON.arena_union, g1, g2, max_or_width)
    return PYTHON.arena_union(g1, g2, max_or_width)


def arena_intersect(g1: Grammar, g2: Grammar,
                    max_or_width: Optional[int]) -> Grammar:
    """Exact intersection (product of deterministic automata) as an
    iterative construction over int keys."""
    if NATIVE is not None:
        return NATIVE.arena_intersect(g1, g2, max_or_width)
    if _KPROF:
        return _timed("intersect", PYTHON.arena_intersect, g1, g2,
                      max_or_width)
    return PYTHON.arena_intersect(g1, g2, max_or_width)


def arena_functor(name: str, children: Tuple[Grammar, ...],
                  max_or_width: Optional[int]) -> Grammar:
    """``name(c1, ..., cn)`` built by embedding the children's arenas
    at int offsets (no recursive copy, no GrammarBuilder) — the
    layout is dense by construction."""
    if NATIVE is not None:
        return NATIVE.arena_functor(name, children, max_or_width)
    if _KPROF:
        return _timed("functor", PYTHON.arena_functor, name, children,
                      max_or_width)
    return PYTHON.arena_functor(name, children, max_or_width)


def arena_subgrammar(grammar: Grammar, nt: int) -> Grammar:
    """The grammar rooted at ``nt`` — a BFS renumbering over arena
    rows (pre-sorted in canonical alternative order).

    Normalization is skipped entirely: sub-automata of a normalized
    grammar are already pruned, absorbed, and bisimulation-minimal
    (distinguishing experiments only use reachable structure, which the
    subgrammar keeps), so only the canonical renumbering remains.
    """
    if NATIVE is not None:
        return NATIVE.arena_subgrammar(grammar, nt)
    if _KPROF:
        return _timed("subgrammar", PYTHON.arena_subgrammar, grammar, nt)
    return PYTHON.arena_subgrammar(grammar, nt)


# Resolve the requested tier eagerly so the dispatch sites (here and in
# ``ops.py`` / ``grammar.py`` / ``pattern.py``) can read the module
# globals ``NATIVE`` and ``PYTHON`` without a per-call probe.  Neither
# tier module needs more of this one at import time than what is
# defined above, so this cannot recurse.
_resolve_kernel()
