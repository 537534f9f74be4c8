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

Results are **bit-identical** to the reference implementations kept in
:mod:`repro.typegraph.grammar` / :mod:`repro.typegraph.ops`
(``tests/test_arena_properties.py`` proves it with hypothesis; the
benchmark trajectory compares full-engine fingerprints).  The
``REPRO_ARENA`` environment variable (``0``/``off``/``false``) or
:func:`configure` routes every operation back through the reference
paths for A/B runs.

Execution tiers
---------------

The arena kernels themselves run in one of three tiers, selected by
``REPRO_ARENA_KERNEL`` (or ``configure(kernel=...)``):

* ``python`` — the iterative worklist loops below, over Python-int
  bitsets.  Always available; the portable baseline.
* ``numpy`` — the same algorithms with the dense passes (reachability
  closure, nonemptiness, partition refinement, the inclusion pair
  walk) restated as fixed-width word-array operations in
  :mod:`repro.typegraph._kernels_numpy` (bulk ``|=``/``&``,
  ``nonzero``, sorted-signature grouping).  Falls back to ``python``
  when numpy is not importable.
* ``native`` — a small C extension (:mod:`repro.typegraph._native`)
  compiled lazily with the system C compiler, which additionally
  serves the memoized grammar *operations* (``g_le``/``g_union``/
  ``g_intersect``/``g_functor``/``subgrammar``) and the Pat(Type)
  pattern walks from C-side tables.  Falls back straight to
  ``python`` when no toolchain is available: ``numpy`` measures
  slower than ``python`` on the Table-3 suite, so it runs only when
  requested by name.

``auto`` (the default) resolves like ``native``.  Every
tier returns the *identical interned* ``Grammar`` objects — the three
implementations share the canonical renumbering and the process-wide
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
    "arena_subgrammar", "arena_normalize", "RulesIndex",
    "enabled", "configure", "stats", "snapshot",
    "kernel", "available_kernels", "kernel_status",
]


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_ARENA", "1").strip().lower()
    return value not in ("0", "off", "false", "no")


_ENABLED = _env_enabled()

#: Process-wide counters (the engine diffs :func:`snapshot` across a
#: run to attribute compilation work to it).
_COMPILES = 0
_INDEX_BUILDS = 0

# -- kernel tier selection ---------------------------------------------------

_KERNEL_TIERS = ("python", "numpy", "native")


def _env_kernel() -> str:
    value = os.environ.get("REPRO_ARENA_KERNEL", "auto").strip().lower()
    if value in _KERNEL_TIERS or value == "auto":
        return value
    return "auto"


#: Requested tier ("auto" resolves on first use), the resolved active
#: tier, and per-tier fallback reasons for :func:`kernel_status`.
_KERNEL_REQUESTED = _env_kernel()
_KERNEL_ACTIVE: Optional[str] = None
_KERNEL_REASONS: Dict[str, str] = {}

#: Loaded helper modules for the non-python tiers (None = inactive).
#: ``NATIVE`` is read directly by the dispatch sites in ``ops.py`` /
#: ``grammar.py`` / ``pattern.py`` — a plain module-global read, reset
#: whenever the tier is re-resolved.
_NUMPY_MOD = None
NATIVE = None


def _try_numpy():
    try:
        from . import _kernels_numpy
        return _kernels_numpy, None
    except Exception as exc:  # numpy absent or too old
        return None, "numpy tier unavailable: %s" % (exc,)


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
    any better tier was skipped), load its helper module, and publish
    the module globals the dispatch sites read."""
    global _KERNEL_ACTIVE, _NUMPY_MOD, NATIVE
    if _KERNEL_ACTIVE is not None:
        return _KERNEL_ACTIVE
    chain = {
        "python": ("python",),
        "numpy": ("numpy", "python"),
        "native": ("native", "python"),
        "auto": ("native", "python"),
    }[_KERNEL_REQUESTED]
    _NUMPY_MOD = None
    NATIVE = None
    for tier in chain:
        if tier == "python":
            _KERNEL_ACTIVE = "python"
            break
        mod, reason = _try_native() if tier == "native" else _try_numpy()
        if mod is None:
            _KERNEL_REASONS[tier] = reason
            continue
        if tier == "native":
            NATIVE = mod
        else:
            _NUMPY_MOD = mod
        _KERNEL_ACTIVE = tier
        break
    return _KERNEL_ACTIVE


def kernel() -> str:
    """The active kernel tier ("python", "numpy", or "native"),
    resolving the requested tier on first use."""
    return _KERNEL_ACTIVE or _resolve_kernel()


def available_kernels() -> List[str]:
    """Tiers that can actually run in this process/environment."""
    tiers = ["python"]
    if _try_numpy()[0] is not None:
        tiers.append("numpy")
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

#: ``op -> [calls, seconds]`` for the python/numpy tiers; the native
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
    select the execution tier (``python``/``numpy``/``native``/
    ``auto``) with the same fallback semantics as the
    ``REPRO_ARENA_KERNEL`` environment variable."""
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
                 "nt_index", "_reach", "_np")

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
        #: lazily built word-array view (numpy tier), see
        #: :func:`repro.typegraph._kernels_numpy.np_view`.
        self._np = None

    def index_of(self, nt: int) -> int:
        if self.nt_index is None:
            return nt
        return self.nt_index[nt]

    def reach(self) -> Tuple[int, ...]:
        """``reach()[nt]`` is the bitset of nonterminals reachable from
        ``nt`` (including itself) — fixpoint of bitset unions (the
        numpy tier computes the same closure with word-array ors)."""
        if self._reach is None:
            if _NUMPY_MOD is not None:
                self._reach = _NUMPY_MOD.reach(self)
                return self._reach
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


def _nonempty_bits(any_f: List[bool], int_f: List[bool],
                   funcs: List[list], n: int) -> int:
    """Nonempty bitset (worklist with per-alternative counters;
    duplicate argument occurrences register the cell once per
    occurrence and count once per occurrence, so they balance)."""
    nonempty = 0
    waiting: Dict[int, list] = {}
    stack: List[int] = []
    for i in range(n):
        if any_f[i] or int_f[i]:
            nonempty |= 1 << i
            stack.append(i)
            continue
        for sym, arg_idx in funcs[i]:
            if not arg_idx:
                if not (nonempty >> i) & 1:
                    nonempty |= 1 << i
                    stack.append(i)
                break
            cell = [i, len(arg_idx)]
            for a in arg_idx:
                waiting.setdefault(a, []).append(cell)
    while stack:
        proved = stack.pop()
        for cell in waiting.get(proved, ()):
            cell[1] -= 1
            if cell[1] == 0 and not (nonempty >> cell[0]) & 1:
                nonempty |= 1 << cell[0]
                stack.append(cell[0])
    return nonempty


def _normalize_dense(any_f: List[bool], int_f: List[bool],
                     funcs: List[list], root_i: int,
                     max_or_width: Optional[int],
                     prune: bool = True) -> Grammar:
    """Normalization over dense arrays: ``funcs[i]`` lists the functor
    alternatives of nonterminal ``i`` as ``(sym, arg_index_tuple)``
    (duplicate-free).  Mutates the argument lists in place.

    ``prune=False`` skips the nonemptiness pass — sound for
    constructions that cannot produce empty nonterminals from
    normalized operands (union merges derive a superset of either
    side; functor embeds copy nonempty grammars)."""
    if NATIVE is not None:
        return NATIVE.normalize_dense(any_f, int_f, funcs, root_i,
                                      max_or_width, prune)
    n = len(any_f)
    is_literal = SYMBOLS.is_literal

    if prune:
        # 1. nonempty pass (the numpy tier iterates the same least
        #    fixpoint with word-array ors instead of a worklist)
        if _NUMPY_MOD is not None:
            nonempty = _NUMPY_MOD.nonempty_bits(any_f, int_f, funcs, n)
        else:
            nonempty = _nonempty_bits(any_f, int_f, funcs, n)
    all_mask = (1 << n) - 1

    # 2+3. prune empty references, absorb, cap or-width
    for i in range(n):
        row = funcs[i]
        if prune and nonempty != all_mask:
            kept = []
            for sym, arg_idx in row:
                ok = True
                for a in arg_idx:
                    if not (nonempty >> a) & 1:
                        ok = False
                        break
                if ok:
                    kept.append((sym, arg_idx))
        else:
            kept = row if isinstance(row, list) else list(row)
        has_any = any_f[i]
        has_int = int_f[i]
        if has_any and (has_int or kept):
            has_int = False
            kept = []
        elif has_int:
            kept = [(sym, arg_idx) for sym, arg_idx in kept
                    if not is_literal[sym]]
        if max_or_width is not None and \
                (has_any + has_int + len(kept)) > max_or_width:
            has_any, has_int, kept = True, False, []
        any_f[i] = has_any
        int_f[i] = has_int
        funcs[i] = kept

    # 4. partition refinement to the coarsest bisimulation — identical
    #    partition to the reference walk (the coarsest
    #    signature-stable partition is unique; any fair split order
    #    reaches it).  Split-based with a dirty-class worklist: only
    #    classes containing a node whose successors were relabelled
    #    recompute signatures, instead of re-signing every node every
    #    round.  An alternative's signature is a flat
    #    ``(code, digits)`` pair: ``digits`` packs the arg classes as
    #    base-(n+1) positional digits (each >= 1), and ``code`` fixes
    #    the symbol hence the arity, so the pair is injective — and
    #    far cheaper to hash than variable-length nested tuples.
    #    (ANY -> code 0, INT -> 1, functor sym -> s + 2.)
    #    The numpy tier reaches the same (unique) partition by global
    #    sorted-signature grouping rounds; only the class *labels* can
    #    differ, and the representative/renumber steps below depend
    #    only on the partition itself.
    if _NUMPY_MOD is not None and n > 1:
        classes = _NUMPY_MOD.refine_classes(any_f, int_f, funcs, n)
    else:
        classes = _refine_classes(any_f, int_f, funcs, n)
    representative: Dict[int, int] = {}
    for i in range(n):
        representative.setdefault(classes[i], i)
    cmap = [representative[c] for c in classes]
    return _renumber_and_intern(any_f, int_f, funcs, cmap, root_i)


def _refine_classes(any_f: List[bool], int_f: List[bool],
                    funcs: List[list], n: int) -> List[int]:
    classes = [0] * n
    if n > 1:
        shapes: List[list] = [None] * n
        preds: List[list] = [[] for _ in range(n)]
        for i in range(n):
            parts = []
            if any_f[i]:
                parts.append((0, ()))
            if int_f[i]:
                parts.append((1, ()))
            for sym, arg_idx in funcs[i]:
                parts.append((sym + 2, arg_idx))
                for a in arg_idx:
                    preds[a].append(i)
            shapes[i] = parts
        base = n + 1
        members: Dict[int, List[int]] = {0: list(range(n))}
        next_class = 1
        pending = {0}
        while pending:
            cls = pending.pop()
            group = members[cls]
            if len(group) <= 1:
                continue
            sig_groups: Dict[tuple, list] = {}
            for i in group:
                row = []
                for code, arg_idx in shapes[i]:
                    digits = 0
                    for a in arg_idx:
                        digits = digits * base + classes[a] + 1
                    row.append((code, digits))
                if len(row) > 1:
                    row.sort()
                sig_groups.setdefault(tuple(row), []).append(i)
            if len(sig_groups) == 1:
                continue
            # the largest part keeps the label; relabelled nodes make
            # their predecessors' classes dirty
            parts_by_size = sorted(sig_groups.values(), key=len,
                                   reverse=True)
            members[cls] = parts_by_size[0]
            for part in parts_by_size[1:]:
                label = next_class
                next_class += 1
                members[label] = part
                for i in part:
                    classes[i] = label
                for i in part:
                    for pred in preds[i]:
                        pending.add(classes[pred])
    return classes


def _renumber_and_intern(any_f: List[bool], int_f: List[bool],
                         funcs: List[list], cmap: List[int],
                         root_i: int) -> Grammar:
    """Steps 5–6 of :func:`_normalize_dense` — shared across the
    python and numpy tiers so the canonical numbering, intern probe,
    and fused arena build are literally the same code."""
    # 5. BFS renumbering from the root's class, alternatives visited in
    #    canonical fkey order (ANY/INT have no children, so only the
    #    functor alternatives drive the numbering)
    fkeys = SYMBOLS.fkeys
    start = cmap[root_i]
    number = {start: 0}
    order = [start]
    qi = 0
    merged: Dict[int, list] = {}
    while qi < len(order):
        i = order[qi]
        qi += 1
        seen_alts = set()
        alts = []
        for sym, arg_idx in funcs[i]:
            mapped = tuple(cmap[a] for a in arg_idx)
            entry = (sym, mapped)
            if entry in seen_alts:  # class-mapping can merge duplicates
                continue
            seen_alts.add(entry)
            alts.append((fkeys[sym], sym, mapped))
        alts.sort()
        merged[i] = alts
        for _, _, mapped in alts:
            for child in mapped:
                if child not in number:
                    number[child] = len(number)
                    order.append(child)

    # 6. probe the int-keyed intern index before building any objects:
    #    the canonical numbering and per-node fkey-sorted rows make the
    #    flat int encoding below a deterministic function of the
    #    grammar's structure, so a repeat normalization returns the
    #    canonical instance without constructing a single FuncAlt,
    #    frozenset, or structural hash.
    out_n = len(number)
    flat: List[int] = [out_n]
    renumbered: List[tuple] = [None] * out_n
    for i, new_nt in number.items():
        rows = []
        for fkey, sym, mapped in merged[i]:
            renum = tuple(number[c] for c in mapped)
            rows.append((fkey, sym, renum))
        renumbered[new_nt] = (i, rows)
    for new_nt in range(out_n):
        i, rows = renumbered[new_nt]
        flat.append((1 if any_f[i] else 0) | (2 if int_f[i] else 0))
        flat.append(len(rows))
        for _, sym, renum in rows:
            flat.append(sym)
            flat.extend(renum)
    int_key = tuple(flat)
    cached_grammar = _INTKEY_INTERN.get(int_key)
    if cached_grammar is not None:
        return cached_grammar

    # build the final Grammar once (plus its arena, for free)
    final: Dict[int, frozenset] = {}
    out_any = 0
    out_int = 0
    out_syms: List[tuple] = [()] * out_n
    out_args: List[tuple] = [()] * out_n
    out_by: List[dict] = [None] * out_n
    key_items: List[tuple] = [None] * out_n
    for new_nt in range(out_n):
        i, rows = renumbered[new_nt]
        alt_objs: List[object] = []
        if any_f[i]:
            alt_objs.append(ANY)
            out_any |= 1 << new_nt
        if int_f[i]:
            alt_objs.append(INT)
            out_int |= 1 << new_nt
        for fkey, sym, renum in rows:
            alt_objs.append(FuncAlt(fkey[1], renum, fkey[0] == "i"))
        out_syms[new_nt] = tuple(sym for _, sym, _ in rows)
        out_args[new_nt] = tuple(renum for _, _, renum in rows)
        out_by[new_nt] = {sym: renum for _, sym, renum in rows}
        key_items[new_nt] = (new_nt, tuple(alt_objs))
        final[new_nt] = frozenset(alt_objs)
    raw = Grammar(final, 0)
    # alt_objs is already in _alt_sort_key order (ANY, INT, functors in
    # fkey order) and nts are dense from 0, so the structural key can be
    # assembled here without re-sorting the frozensets.
    raw._key_cache = (0, tuple(key_items))
    grammar = intern_grammar(raw)
    if grammar._arena is None:
        global _COMPILES
        _COMPILES += 1  # fused compile: the arrays are already flat
        grammar._arena = GrammarArena(
            out_n, out_any, out_int, tuple(out_syms), tuple(out_args),
            tuple(out_by))
    _INTKEY_INTERN[int_key] = grammar
    return grammar


# -- native-tier bridge ------------------------------------------------------
#
# The C extension keeps only integers; these callbacks are its one
# door back into the Python object layer.  ``_grammar_from_intkey``
# funnels every C-side construction through the same flat-int intern
# probe as :func:`_renumber_and_intern`, so the native tier returns
# the identical interned instances as the python/numpy tiers.

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


# -- inclusion ---------------------------------------------------------------

def arena_le(g1: Grammar, g2: Grammar) -> bool:
    """Exact inclusion as an iterative worklist over the synchronized
    product: every reachable pair must locally match (determinism makes
    the local condition complete)."""
    if NATIVE is not None:
        return NATIVE.arena_le(g1, g2)
    impl = _arena_le_py if _NUMPY_MOD is None else _NUMPY_MOD.arena_le
    if _KPROF:
        return _timed("le", impl, g1, g2)
    return impl(g1, g2)


def _arena_le_py(g1: Grammar, g2: Grammar) -> bool:
    a1 = arena_of(g1)
    a2 = arena_of(g2)
    any1, int1 = a1.any_mask, a1.int_mask
    any2, int2 = a2.any_mask, a2.int_mask
    n2 = a2.n
    is_literal = SYMBOLS.is_literal
    r1 = a1.index_of(g1.root)
    r2 = a2.index_of(g2.root)
    seen = {r1 * n2 + r2}
    stack = [(r1, r2)]
    syms1, args1, by2 = a1.syms, a1.args, a2.by_sym
    while stack:
        i, j = stack.pop()
        if (any2 >> j) & 1:
            continue  # ANY on the right covers everything below
        if (any1 >> i) & 1:
            return False  # nothing but ANY covers all terms
        has_int = (int2 >> j) & 1
        if (int1 >> i) & 1 and not has_int:
            return False
        row = by2[j]
        for sym, arg_tuple in zip(syms1[i], args1[i]):
            if has_int and is_literal[sym]:
                continue
            other = row.get(sym)
            if other is None:
                return False
            for c1, c2 in zip(arg_tuple, other):
                key = c1 * n2 + c2
                if key not in seen:
                    seen.add(key)
                    stack.append((c1, c2))
    return True


# -- union -------------------------------------------------------------------

def arena_union(g1: Grammar, g2: Grammar,
                max_or_width: Optional[int]) -> Grammar:
    """Pointwise-merged union (principal functor restriction) as an
    iterative product construction over int keys, emitting the dense
    arrays normalization consumes directly.  The product discovery is
    inherently sequential hash-consing; its dense back half (the
    nonemptiness and refinement passes inside ``_normalize_dense``)
    is where the numpy tier applies, and the native tier runs the
    whole construction in C."""
    if NATIVE is not None:
        return NATIVE.arena_union(g1, g2, max_or_width)
    if _KPROF:
        return _timed("union", _arena_union_py, g1, g2, max_or_width)
    return _arena_union_py(g1, g2, max_or_width)


def _arena_union_py(g1: Grammar, g2: Grammar,
                    max_or_width: Optional[int]) -> Grammar:
    a1 = arena_of(g1)
    a2 = arena_of(g2)
    n1, n2 = a1.n, a2.n
    base = n1 * n2          # keys < base: merged pairs i * n2 + j
    base_r = base + n1      # then n1 left-embed keys, n2 right-embed
    is_literal = SYMBOLS.is_literal
    ids: Dict[int, int] = {}
    any_f: List[int] = []
    int_f: List[int] = []
    funcs: List[list] = []
    work: List[int] = []

    def nid(key: int) -> int:
        i = ids.get(key)
        if i is None:
            i = len(ids)
            ids[key] = i
            any_f.append(0)
            int_f.append(0)
            funcs.append(())
            work.append(key)
        return i

    root = nid(a1.index_of(g1.root) * n2 + a2.index_of(g2.root))
    while work:
        key = work.pop()
        slot = ids[key]
        if key >= base_r:                       # embedded from g2
            j = key - base_r
            any_f[slot] = (a2.any_mask >> j) & 1
            int_f[slot] = (a2.int_mask >> j) & 1
            funcs[slot] = [
                (sym, tuple(nid(base_r + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a2.syms[j], a2.args[j])]
            continue
        if key >= base:                         # embedded from g1
            i = key - base
            any_f[slot] = (a1.any_mask >> i) & 1
            int_f[slot] = (a1.int_mask >> i) & 1
            funcs[slot] = [
                (sym, tuple(nid(base + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a1.syms[i], a1.args[i])]
            continue
        i, j = divmod(key, n2)
        if ((a1.any_mask >> i) & 1) or ((a2.any_mask >> j) & 1):
            any_f[slot] = 1
            funcs[slot] = []
            continue
        has_int = ((a1.int_mask >> i) & 1) or ((a2.int_mask >> j) & 1)
        int_f[slot] = has_int
        by1, by2 = a1.by_sym[i], a2.by_sym[j]
        row = []
        for sym, arg_tuple in by1.items():
            if has_int and is_literal[sym]:
                continue
            other = by2.get(sym)
            if other is not None:
                row.append((sym, tuple(
                    nid(c1 * n2 + c2)
                    for c1, c2 in zip(arg_tuple, other))))
            else:
                row.append((sym, tuple(nid(base + c)
                                       for c in arg_tuple)))
        for sym, arg_tuple in by2.items():
            if sym in by1 or (has_int and is_literal[sym]):
                continue
            row.append((sym, tuple(nid(base_r + c)
                                   for c in arg_tuple)))
        funcs[slot] = row
    # Union cannot create empty nonterminals from normalized operands.
    return _normalize_dense(any_f, int_f, funcs, root, max_or_width,
                            prune=False)


# -- intersection ------------------------------------------------------------

def arena_intersect(g1: Grammar, g2: Grammar,
                    max_or_width: Optional[int]) -> Grammar:
    """Exact intersection (product of deterministic automata) as an
    iterative construction over int keys."""
    if NATIVE is not None:
        return NATIVE.arena_intersect(g1, g2, max_or_width)
    if _KPROF:
        return _timed("intersect", _arena_intersect_py, g1, g2,
                      max_or_width)
    return _arena_intersect_py(g1, g2, max_or_width)


def _arena_intersect_py(g1: Grammar, g2: Grammar,
                        max_or_width: Optional[int]) -> Grammar:
    a1 = arena_of(g1)
    a2 = arena_of(g2)
    n1, n2 = a1.n, a2.n
    base = n1 * n2
    base_r = base + n1
    is_literal = SYMBOLS.is_literal
    ids: Dict[int, int] = {}
    any_f: List[int] = []
    int_f: List[int] = []
    funcs: List[list] = []
    work: List[int] = []

    def nid(key: int) -> int:
        i = ids.get(key)
        if i is None:
            i = len(ids)
            ids[key] = i
            any_f.append(0)
            int_f.append(0)
            funcs.append(())
            work.append(key)
        return i

    root = nid(a1.index_of(g1.root) * n2 + a2.index_of(g2.root))
    while work:
        key = work.pop()
        slot = ids[key]
        if key >= base_r:                       # embedded from g2
            j = key - base_r
            any_f[slot] = (a2.any_mask >> j) & 1
            int_f[slot] = (a2.int_mask >> j) & 1
            funcs[slot] = [
                (sym, tuple(nid(base_r + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a2.syms[j], a2.args[j])]
            continue
        if key >= base:                         # embedded from g1
            i = key - base
            any_f[slot] = (a1.any_mask >> i) & 1
            int_f[slot] = (a1.int_mask >> i) & 1
            funcs[slot] = [
                (sym, tuple(nid(base + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a1.syms[i], a1.args[i])]
            continue
        i, j = divmod(key, n2)
        if (a1.any_mask >> i) & 1:              # Any ∩ x = x
            any_f[slot] = (a2.any_mask >> j) & 1
            int_f[slot] = (a2.int_mask >> j) & 1
            funcs[slot] = [
                (sym, tuple(nid(base_r + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a2.syms[j], a2.args[j])]
            continue
        if (a2.any_mask >> j) & 1:
            any_f[slot] = (a1.any_mask >> i) & 1
            int_f[slot] = (a1.int_mask >> i) & 1
            funcs[slot] = [
                (sym, tuple(nid(base + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a1.syms[i], a1.args[i])]
            continue
        int1 = (a1.int_mask >> i) & 1
        int2 = (a2.int_mask >> j) & 1
        by1, by2 = a1.by_sym[i], a2.by_sym[j]
        row = []
        for sym, arg_tuple in by1.items():
            other = by2.get(sym)
            if other is None:
                continue
            row.append((sym, tuple(nid(c1 * n2 + c2)
                                   for c1, c2 in zip(arg_tuple, other))))
        if int2 and not int1:   # literals of g1 ∩ INT = those literals
            for sym in by1:
                if is_literal[sym] and sym not in by2:
                    row.append((sym, ()))
        if int1 and not int2:
            for sym in by2:
                if is_literal[sym] and sym not in by1:
                    row.append((sym, ()))
        int_f[slot] = int1 and int2
        funcs[slot] = row
    return _normalize_dense(any_f, int_f, funcs, root, max_or_width)


# -- functor constructor -----------------------------------------------------

def arena_functor(name: str, children: Tuple[Grammar, ...],
                  max_or_width: Optional[int]) -> Grammar:
    """``name(c1, ..., cn)`` built by embedding the children's arenas
    at int offsets (no recursive copy, no GrammarBuilder) — the
    layout is dense by construction."""
    if NATIVE is not None:
        return NATIVE.arena_functor(name, children, max_or_width)
    if _KPROF:
        return _timed("functor", _arena_functor_py, name, children,
                      max_or_width)
    return _arena_functor_py(name, children, max_or_width)


def _arena_functor_py(name: str, children: Tuple[Grammar, ...],
                      max_or_width: Optional[int]) -> Grammar:
    any_f: List[int] = [0]
    int_f: List[int] = [0]
    funcs: List[list] = [()]
    offset = 1
    child_roots = []
    for child in children:
        arena = arena_of(child)
        child_roots.append(offset + arena.index_of(child.root))
        any_mask = arena.any_mask
        int_mask = arena.int_mask
        for i in range(arena.n):
            any_f.append((any_mask >> i) & 1)
            int_f.append((int_mask >> i) & 1)
            funcs.append([
                (sym, tuple(offset + c for c in arg_tuple))
                for sym, arg_tuple in zip(arena.syms[i], arena.args[i])])
        offset += arena.n
    funcs[0] = [(SYMBOLS.sym("f", name, len(children)),
                 tuple(child_roots))]
    # A normalized grammar is either bottom or empty-free, so the
    # nonempty pass is only needed when some child is bottom (then the
    # root's alternative must be pruned, making the result bottom).
    prune = any(child.is_bottom() for child in children)
    return _normalize_dense(any_f, int_f, funcs, 0, max_or_width,
                            prune=prune)


# -- graph view bridge -------------------------------------------------------

def graph_to_grammar(root, max_or_width: Optional[int]) -> Grammar:
    """Normalized grammar of a type-graph (``root`` is an or-vertex) —
    the arena-side ``to_grammar``: or-vertices get dense ids on
    discovery and the rules feed :func:`_normalize_dense` directly,
    with no ``GrammarBuilder``/``FuncAlt`` intermediates."""
    sym = SYMBOLS.sym
    ids: Dict[int, int] = {id(root): 0}
    queue = [root]
    any_f: List[int] = [0]
    int_f: List[int] = [0]
    funcs: List[list] = [()]
    position = 0
    while position < len(queue):
        vertex = queue[position]
        slot = ids[id(vertex)]
        row: List[tuple] = []
        seen_alts = None
        for successor in vertex.successors:
            kind = successor.kind
            if kind == "any":
                any_f[slot] = 1
            elif kind == "int":
                int_f[slot] = 1
            else:
                children = []
                for child in successor.successors:
                    child_id = ids.get(id(child))
                    if child_id is None:
                        child_id = len(ids)
                        ids[id(child)] = child_id
                        any_f.append(0)
                        int_f.append(0)
                        funcs.append(())
                        queue.append(child)
                    children.append(child_id)
                entry = (sym("i" if successor.is_int else "f",
                             successor.name, len(children)),
                         tuple(children))
                if len(row) >= 1:  # dedup like frozenset(alts) did
                    if seen_alts is None:
                        seen_alts = set(row)
                    if entry in seen_alts:
                        continue
                    seen_alts.add(entry)
                row.append(entry)
        funcs[slot] = row
        position += 1
    return _normalize_dense(any_f, int_f, funcs, 0, max_or_width)


# -- subgrammar --------------------------------------------------------------

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
        return _timed("subgrammar", _arena_subgrammar_py, grammar, nt)
    return _arena_subgrammar_py(grammar, nt)


def _arena_subgrammar_py(grammar: Grammar, nt: int) -> Grammar:
    arena = arena_of(grammar)
    start = arena.index_of(nt)
    number = {start: 0}
    order = [start]
    qi = 0
    while qi < len(order):
        i = order[qi]
        qi += 1
        for arg_tuple in arena.args[i]:  # pre-sorted canonical order
            for child in arg_tuple:
                if child not in number:
                    number[child] = len(number)
                    order.append(child)
    fkeys = SYMBOLS.fkeys
    final: Dict[int, frozenset] = {}
    for i, new_nt in number.items():
        alts: List[object] = []
        if (arena.any_mask >> i) & 1:
            alts.append(ANY)
        if (arena.int_mask >> i) & 1:
            alts.append(INT)
        for sym, arg_tuple in zip(arena.syms[i], arena.args[i]):
            kind, name, _ = fkeys[sym]
            alts.append(FuncAlt(name,
                                tuple(number[c] for c in arg_tuple),
                                kind == "i"))
        final[new_nt] = frozenset(alts)
    return intern_grammar(Grammar(final, 0))


# -- raw-rules index (widening steps) ----------------------------------------

class RulesIndex:
    """One widening step's raw vertex grammar compiled to flat ints,
    with pair-memoized inclusion queries.

    The widening's transformation rules probe many overlapping
    or-vertex pairs of the *same* uninterned graph; compiling its rules
    once and answering each ``le`` query with the iterative pair
    worklist (plus a shared memo) replaces a fresh recursive traversal
    per query.  A ``True`` answer certifies every visited pair (all
    pairs reachable from a passing root pass), so positive runs
    populate the memo wholesale.
    """

    __slots__ = ("n", "index", "any_mask", "int_mask", "syms", "args",
                 "by_sym", "memo")

    @classmethod
    def from_graph(cls, root) -> tuple:
        """Compile a type-graph (``root`` an or-vertex) directly into a
        pair index, skipping the raw-grammar detour.  Returns
        ``(index, nts, vertices)`` where ``nts`` maps ``id(or_vertex)``
        to its (dense) nonterminal and ``vertices`` lists the
        or-vertices in numbering order — enough for a caller to build
        the raw grammar lazily with the same numbering."""
        global _INDEX_BUILDS
        _INDEX_BUILDS += 1
        sym_table = SYMBOLS
        nts: Dict[int, int] = {id(root): 0}
        vertices = [root]
        any_mask = 0
        int_mask = 0
        syms: List[tuple] = []
        args: List[tuple] = []
        by_sym: List[dict] = []
        position = 0
        while position < len(vertices):
            vertex = vertices[position]
            row = []
            for successor in vertex.successors:
                kind = successor.kind
                if kind == "any":
                    any_mask |= 1 << position
                elif kind == "int":
                    int_mask |= 1 << position
                else:
                    children = []
                    for child in successor.successors:
                        child_nt = nts.get(id(child))
                        if child_nt is None:
                            child_nt = len(vertices)
                            nts[id(child)] = child_nt
                            vertices.append(child)
                        children.append(child_nt)
                    row.append((sym_table.sym(
                        "i" if successor.is_int else "f",
                        successor.name, len(children)),
                        tuple(children)))
            syms.append(tuple(pair[0] for pair in row))
            args.append(tuple(pair[1] for pair in row))
            by_sym.append(dict(row))
            position += 1
        index = cls.__new__(cls)
        index.n = len(vertices)
        index.index = None  # identity: nts already dense
        index.any_mask = any_mask
        index.int_mask = int_mask
        index.syms = tuple(syms)
        index.args = tuple(args)
        index.by_sym = tuple(by_sym)
        index.memo = {}
        return index, nts, vertices

    def __init__(self, rules: Dict[int, frozenset]) -> None:
        global _INDEX_BUILDS
        _INDEX_BUILDS += 1
        index = {nt: i for i, nt in enumerate(rules)}
        n = len(index)
        any_mask = 0
        int_mask = 0
        syms: List[tuple] = [()] * n
        args: List[tuple] = [()] * n
        by_sym: List[dict] = [None] * n
        sym_of_alt = SYMBOLS.sym_of_alt
        for nt, alts in rules.items():
            i = index[nt]
            funcs = []
            for alt in alts:
                if alt is ANY:
                    any_mask |= 1 << i
                elif alt is INT:
                    int_mask |= 1 << i
                else:
                    funcs.append((sym_of_alt(alt),
                                  tuple(index[a] for a in alt.args)))
            syms[i] = tuple(pair[0] for pair in funcs)
            args[i] = tuple(pair[1] for pair in funcs)
            by_sym[i] = dict(funcs)
        self.n = n
        self.index = index
        self.any_mask = any_mask
        self.int_mask = int_mask
        self.syms = tuple(syms)
        self.args = tuple(args)
        self.by_sym = tuple(by_sym)
        self.memo: Dict[int, bool] = {}

    def le(self, nt1: int, nt2: int) -> bool:
        """Denotation inclusion between two nonterminals (original
        numbering) of the indexed rules."""
        n = self.n
        if self.index is None:
            i0, j0 = nt1, nt2
        else:
            i0 = self.index[nt1]
            j0 = self.index[nt2]
        root = i0 * n + j0
        cached = self.memo.get(root)
        if cached is not None:
            return cached
        any_mask, int_mask = self.any_mask, self.int_mask
        is_literal = SYMBOLS.is_literal
        memo = self.memo
        seen = {root}
        stack = [(i0, j0)]
        result = True
        while stack:
            i, j = stack.pop()
            key = i * n + j
            known = memo.get(key)
            if known is True:
                continue  # all pairs reachable from it pass too
            if known is False:
                result = False
                break
            if (any_mask >> j) & 1:
                continue
            if (any_mask >> i) & 1:
                memo[key] = False
                result = False
                break
            has_int = (int_mask >> j) & 1
            if (int_mask >> i) & 1 and not has_int:
                memo[key] = False
                result = False
                break
            row = self.by_sym[j]
            failed = False
            for sym, arg_tuple in zip(self.syms[i], self.args[i]):
                if has_int and is_literal[sym]:
                    continue
                other = row.get(sym)
                if other is None:
                    failed = True
                    break
                for c1, c2 in zip(arg_tuple, other):
                    child = c1 * n + c2
                    if child not in seen:
                        seen.add(child)
                        stack.append((c1, c2))
            if failed:
                memo[key] = False
                result = False
                break
        if result:
            for key in seen:
                memo[key] = True
        else:
            memo[root] = False
        return result


# Resolve the requested tier eagerly so the dispatch sites (here and in
# ``ops.py`` / ``grammar.py`` / ``pattern.py``) can read the module
# globals ``NATIVE`` / ``_NUMPY_MOD`` without a per-call probe.  The
# helper modules import nothing from this module at import time, so
# this cannot recurse.
_resolve_kernel()
