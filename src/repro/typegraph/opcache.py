"""Bounded memo tables for the type-graph operations.

With grammars interned (:func:`repro.typegraph.grammar.intern_grammar`)
every operation on the engine's hot path — ``g_le``, ``g_union``,
``g_intersect``, ``g_widen``, ``subgrammar`` and the ``g_functor``
constructor — is a pure function of the *identities* of its operands.
This module keeps one bounded LRU table per operation, keyed on those
identities (plus scalar options such as ``max_or_width``), so the
fixpoint engine stops recomputing structurally identical results
thousands of times per run.  Every operation takes this path: a raw
(non-interned) operand is normalized on entry, so it is interned by
the time it reaches a table.

Design notes:

* **Keys** hold the operands' ids (``Grammar.gid``,
  ``AbstractSubst.sid``) plus the scalar options.  Ids are dense
  per-process ints that are never reused, so a lookup costs one tuple
  hash and a dict probe — no structural traversal — and a key stays
  sound after the weak intern table drops its operand.
* **Bounded**: each table is an LRU of :data:`DEFAULT_MAXSIZE`
  entries, so a long-lived batch/service process does not grow without
  limit.
* **Transparent**: results are exactly what a fresh computation
  returns.  ``tests/test_opcache_properties.py`` compares every memo
  hit with a computation after :func:`clear`, and whole analyses run
  cold against warm.
* **Observable**: per-operation hit/miss counters are surfaced through
  :func:`stats` and :func:`snapshot`; the engine records the delta of
  a run in ``AnalysisStats.opcache_hits``/``opcache_misses``.
* **One registry**: the front end's clause-text memo
  (:mod:`repro.prolog.program`) joins it through :func:`register`, so
  :func:`clear` and :func:`stats` cover it too.  That table takes its
  own lock, and :func:`snapshot` leaves it out: the engine attributes
  a snapshot's delta to the fixpoint it brackets.

Threading model — **single analysis thread per process**.  The memo
tables (and the open-coded probes into them on the hottest sites) are
deliberately unlocked: unlike the intern tables, a lost race here
cannot corrupt results (values are canonical interned objects, so a
double compute returns the identical instance), but per-probe locking
would tax the single hottest path in the system.  The service layer
enforces the model rather than paying for it: ``repro serve`` runs
every analysis on one dedicated executor thread (or in single-threaded
pool workers), and ``run_batch`` workers are single-threaded
processes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, Tuple

__all__ = ["OpCache", "cached", "clear", "stats", "snapshot", "caches",
           "register", "DEFAULT_MAXSIZE"]

#: Entries per table.
DEFAULT_MAXSIZE = 65536

_MISSING = object()


class OpCache:
    """One bounded LRU memo table with hit/miss counters."""

    __slots__ = ("name", "maxsize", "hits", "misses", "_table")

    #: Whether :func:`snapshot` counts this table's traffic, which the
    #: engine attributes to the fixpoint it brackets.
    in_snapshot = True

    def __init__(self, name: str, maxsize: int = DEFAULT_MAXSIZE) -> None:
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._table: "OrderedDict" = OrderedDict()

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key):
        """Cached value for ``key`` or ``None`` (values are never
        ``None``); counts a hit or a miss."""
        value = self._table.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        self._table.move_to_end(key)
        return value

    def peek(self, key):
        """:meth:`get` without counting, for a table whose owner counts
        its own hits and misses (the engine's clause memo)."""
        value = self._table.get(key)
        if value is not None:
            self._table.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        table = self._table
        if key in table:
            table.move_to_end(key)
        table[key] = value
        if len(table) > self.maxsize:
            table.popitem(last=False)

    def clear(self) -> None:
        self._table.clear()

    def reset(self) -> None:
        """Clear entries *and* counters (tests, benchmarks)."""
        self.clear()
        self.hits = 0
        self.misses = 0


# -- registry ----------------------------------------------------------------

_CACHES: Dict[str, OpCache] = {}


def register(cache: OpCache) -> OpCache:
    """Add ``cache`` to the registry :func:`clear`, :func:`stats` and
    :func:`caches` cover, under its name."""
    _CACHES[cache.name] = cache
    return cache


def cache_for(name: str) -> OpCache:
    """The process-wide cache for operation ``name`` (created lazily)."""
    cache = _CACHES.get(name)
    if cache is None:
        cache = OpCache(name)
        _CACHES[name] = cache
    return cache


def caches() -> Iterator[OpCache]:
    return iter(_CACHES.values())


def clear(reset_counters: bool = False) -> None:
    """Drop every cached result (optionally also the counters).  The
    native tier's C-side memo tables are cleared in the same stroke so
    both layers forget together, and the next operation computes."""
    from . import arena  # grammar imports this module before arena
    for cache in _CACHES.values():
        if reset_counters:
            cache.reset()
        else:
            cache.clear()
    if arena.NATIVE is not None:
        arena.NATIVE.clear_memos()


def stats() -> Dict[str, Dict[str, int]]:
    """Per-operation ``{hits, misses, size}`` snapshot."""
    return {cache.name: {"hits": cache.hits, "misses": cache.misses,
                         "size": len(cache)}
            for cache in _CACHES.values()}


def snapshot() -> Tuple[int, int]:
    """Aggregate ``(hits, misses)`` across all tables — the engine
    diffs two snapshots to attribute cache traffic to one run."""
    hits = 0
    misses = 0
    for cache in _CACHES.values():
        if cache.in_snapshot:
            hits += cache.hits
            misses += cache.misses
    return hits, misses


def cached(name: str, key: tuple, compute: Callable[[], object]):
    """Memoize ``compute()`` under ``key`` in the ``name`` table."""
    cache = cache_for(name)
    value = cache.get(key)
    if value is None:
        value = compute()
        cache.put(key, value)
    return value
