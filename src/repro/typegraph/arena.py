"""Arena-compiled type-graph kernel: flat integer grammars, bitset
nonterminal sets, and iterative core operations.

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
  position, and nonterminal *sets* (ANY/INT membership, nonemptiness)
  are Python-int bitsets: one ``(mask >> nt) & 1`` per test, one
  ``|`` per union.
* **Operations** — inclusion is an iterative pair-worklist over the
  synchronized product (pairs encoded as ``n1 * n2 + n2``-style ints);
  union/intersection build their product rules directly as int tuples;
  ``subgrammar`` is a bitset-guided BFS renumbering that skips
  normalization entirely (sub-automata of a minimized automaton are
  minimized); normalization itself — the single hottest function in
  the PR3 profile — runs nonemptiness, pruning, or-width capping,
  partition refinement, and BFS renumbering over int arrays, ending in
  the result's canonical key (:func:`repro.typegraph.grammar.grammar_of_key`):
  a repeat result is one intern-table probe, a new one a handle whose
  rules are decoded only if something asks for them.

Results are **bit-identical** to the Grammar-level reference
implementations in :mod:`repro.typegraph.reference`, which only tests
call (``tests/test_arena_properties.py`` compares each kernel with
its reference under hypothesis; the benchmark trajectory compares
full-engine fingerprints).  The arena is the one path every
type-graph operation takes.

This module holds what both tiers share: tier selection, the
per-grammar arena (read off the canonical key), the boundary counters,
and the dispatch functions (``arena_le`` and the rest).  Each tier's
kernels live in a module of its own, imported when that tier is
selected.

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
objects — they share the canonical key and the process-wide intern
tables, so ``gid``s, fingerprints, and serialized forms are
tier-oblivious (``tests/test_kernel_tiers.py`` sweeps them).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from .grammar import (ANY, INT, SYMBOLS, FuncAlt, Grammar, SymbolTable,
                      _key_rows, boundary_counters)

__all__ = [
    "SymbolTable", "SYMBOLS", "GrammarArena", "arena_of", "decompile",
    "arena_le", "arena_union", "arena_intersect", "arena_functor",
    "arena_subgrammar", "arena_normalize",
    "configure", "stats", "snapshot",
    "kernel", "available_kernels", "kernel_status",
]


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


def configure(kernel: Optional[str] = None) -> None:
    """Select the execution tier (``python``/``native``/``auto``) at
    runtime, with the same fallback semantics as the
    ``REPRO_ARENA_KERNEL`` environment variable.  Both tiers return the
    identical interned objects, so switching mid-process is safe."""
    global _KERNEL_REQUESTED, _KERNEL_ACTIVE
    if kernel is not None:
        kernel = kernel.strip().lower()
        if kernel not in _KERNEL_TIERS and kernel != "auto":
            raise ValueError("unknown arena kernel tier: %r" % (kernel,))
        _KERNEL_REQUESTED = kernel
        _KERNEL_ACTIVE = None
        _KERNEL_REASONS.clear()
        _resolve_kernel()


#: The C↔Python boundary counters of :func:`stats`.
BOUNDARY_COUNTERS = ("grammar_handles", "grammar_decodes", "subst_handles",
                     "subst_decodes", "callbacks", "callback_seconds")


def stats() -> Dict[str, int]:
    """Process-wide arena counters: grammar compilations, widening
    step-index builds, distinct functor symbols interned, and the
    C↔Python boundary: interned grammars and substitutions born as
    handles (``*_handles``), handles whose Python form was later built
    (``*_decodes``), and the native tier's calls back into Python
    (``callbacks``; ``callback_seconds`` accrues only under
    :func:`profile_kernels`).  With the native tier active the C-side
    counters are folded in, so the engine's attribution stays
    tier-oblivious."""
    counters = {"compiles": _COMPILES, "index_builds": _INDEX_BUILDS,
                "symbols": len(SYMBOLS.fkeys)}
    counters.update(boundary_counters())
    counters["callbacks"] = 0
    counters["callback_seconds"] = 0.0
    if NATIVE is not None:
        for name, value in NATIVE.stats().items():
            if name in counters:
                counters[name] += value
    return counters


def snapshot() -> int:
    """Aggregate compilation count (grammar arenas + step indexes)."""
    counters = stats()
    return counters["compiles"] + counters["index_builds"]


# -- the per-grammar arena ---------------------------------------------------

class GrammarArena:
    """Immutable flat-int view of one normalized grammar.

    ``syms[nt]`` / ``args[nt]`` are parallel tuples of the functor
    alternatives, pre-sorted in canonical fkey order (so BFS
    renumbering never sorts); ``by_sym[nt]`` maps symbol -> argument
    tuple for the product constructions; ``any_mask`` / ``int_mask``
    are bitsets of the nonterminals carrying ANY / INT alternatives.
    Nonterminals are the grammar's own (canonical, root 0).
    """

    __slots__ = ("n", "any_mask", "int_mask", "syms", "args", "by_sym")

    def __init__(self, n: int, any_mask: int, int_mask: int,
                 syms: tuple, args: tuple, by_sym: tuple) -> None:
        self.n = n
        self.any_mask = any_mask
        self.int_mask = int_mask
        self.syms = syms
        self.args = args
        self.by_sym = by_sym

    @staticmethod
    def index_of(nt: int) -> int:
        """The dense index of a nonterminal: the identity, since an
        arena keeps its grammar's canonical numbering."""
        return nt


def arena_of(grammar: Grammar) -> GrammarArena:
    """The (cached) arena of an interned grammar, read off its
    canonical key."""
    grammar_arena = grammar._arena
    if grammar_arena is None:
        grammar_arena = grammar._arena = _compile(grammar._ckey)
    return grammar_arena


def _compile(key: bytes) -> GrammarArena:
    global _COMPILES
    _COMPILES += 1
    any_mask = 0
    int_mask = 0
    syms: List[tuple] = []
    args: List[tuple] = []
    by_sym: List[dict] = []
    for i, (flags, row) in enumerate(_key_rows(key)):
        if flags & 1:
            any_mask |= 1 << i
        if flags & 2:
            int_mask |= 1 << i
        syms.append(tuple(sym for sym, _ in row))
        args.append(tuple(arg_tuple for _, arg_tuple in row))
        by_sym.append(dict(row))
    return GrammarArena(len(syms), any_mask, int_mask, tuple(syms),
                        tuple(args), tuple(by_sym))


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

def _sym_rows(start: int) -> List[Tuple[str, str, int]]:
    """Symbol-table rows from ``start`` on (the C registry mirrors the
    table incrementally; ids are dense and append-only)."""
    return list(SYMBOLS.fkeys[start:])


def arena_normalize(grammar: Grammar,
                    max_or_width: Optional[int]) -> Grammar:
    """Normalize an arbitrary raw grammar through the int pipeline
    (bit-identical to
    :func:`repro.typegraph.reference.normalize_reference`)."""
    if _KPROF and NATIVE is None:
        return _timed("normalize", _arena_normalize_impl, grammar,
                      max_or_width)
    return _arena_normalize_impl(grammar, max_or_width)


def _arena_normalize_impl(grammar: Grammar,
                          max_or_width: Optional[int]) -> Grammar:
    if grammar.interned:  # only the or-width cap is left to apply
        grammar_arena = arena_of(grammar)
        return _normalize_dense(
            [(grammar_arena.any_mask >> i) & 1 for i in range(grammar_arena.n)],
            [(grammar_arena.int_mask >> i) & 1 for i in range(grammar_arena.n)],
            [list(zip(syms, args)) for syms, args in
             zip(grammar_arena.syms, grammar_arena.args)],
            0, max_or_width)
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
