"""Bounded memo tables for the type-graph operations.

With grammars interned (:func:`repro.typegraph.grammar.intern_grammar`)
every operation on the engine's hot path — ``g_le``, ``g_union``,
``g_intersect``, ``g_widen``, and the ``g_functor`` constructor — is a
pure function of the *identities* of its operands.  This module keeps
one bounded LRU table per operation, keyed on those identities (plus
scalar options such as ``max_or_width``), so the fixpoint engine stops
recomputing structurally identical results thousands of times per run.

Design notes:

* **Keys** hold the operand grammars themselves.  Interned grammars
  carry a precomputed hash and compare by identity, so lookups cost a
  couple of dict probes — no structural traversal.
* **Bounded**: each table is an LRU with a configurable ``maxsize``
  (default 65536 entries), so a long-lived batch/service process does
  not grow without limit.  Entries keep their operand grammars alive
  while cached; eviction releases them back to the weak intern table's
  discretion.
* **Transparent**: results are exactly what the uncached operation
  returns (the property tests in ``tests/test_opcache_properties.py``
  assert bit-identical analysis results with caches on and off).
* **Observable**: per-operation hit/miss counters are surfaced through
  :func:`stats` and :func:`snapshot`; the engine records the delta of
  a run in ``AnalysisStats.opcache_hits``/``opcache_misses``.

Knobs: ``configure(enabled=..., maxsize=...)`` at runtime (the
equivalence and kernel-tier tests switch caching off through it).

Threading model — **single analysis thread per process**.  The memo
tables (and the open-coded probes into them on the hottest sites) are
deliberately unlocked: unlike the intern tables, a lost race here
cannot corrupt results (values are canonical interned objects, so a
double compute returns the identical instance), but per-probe locking
would tax the single hottest path in the system.  The service layer
enforces the model rather than paying for it: ``repro serve`` runs
every analysis on one dedicated executor thread (or in single-threaded
pool workers), and ``run_batch`` workers are single-threaded
processes.  Embedders who want the invariant *checked* can set
``REPRO_THREADGUARD=1`` (or call :func:`guard`): every table mutation
then asserts it happens on one consistent thread.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterator, Optional, Tuple

__all__ = ["OpCache", "cached", "configure", "enabled", "clear",
           "stats", "snapshot", "caches", "guard", "DEFAULT_MAXSIZE"]

DEFAULT_MAXSIZE = 65536

_MISSING = object()


def _env_guard() -> bool:
    value = os.environ.get("REPRO_THREADGUARD", "0").strip().lower()
    return value not in ("0", "off", "false", "no", "")


#: When true, every OpCache mutation asserts the single-writer-thread
#: invariant documented in the module docstring.
_GUARD = _env_guard()


def guard(enabled: bool) -> None:
    """Toggle the single-writer-thread assertion on table mutations
    (equivalent to starting the process with ``REPRO_THREADGUARD=1``).
    A debugging aid, off by default — it costs a branch per ``put``."""
    global _GUARD
    _GUARD = bool(enabled)
    if not enabled:
        for cache in _CACHES.values():
            cache.owner = None


class OpCache:
    """One bounded LRU memo table with hit/miss counters."""

    __slots__ = ("name", "maxsize", "hits", "misses", "_table", "owner")

    def __init__(self, name: str, maxsize: int = DEFAULT_MAXSIZE) -> None:
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._table: "OrderedDict" = OrderedDict()
        #: thread id of the first mutator, tracked only under the
        #: REPRO_THREADGUARD debugging aid.
        self.owner: Optional[int] = None

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

    def put(self, key, value) -> None:
        if _GUARD:
            ident = threading.get_ident()
            if self.owner is None:
                self.owner = ident
            elif self.owner != ident:
                raise RuntimeError(
                    "opcache %r mutated from thread %d after thread %d "
                    "— the single-analysis-thread-per-process model is "
                    "violated (see repro.typegraph.opcache docstring)"
                    % (self.name, ident, self.owner))
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

_ENABLED = True
_CACHES: Dict[str, OpCache] = {}


def cache_for(name: str) -> OpCache:
    """The process-wide cache for operation ``name`` (created lazily)."""
    cache = _CACHES.get(name)
    if cache is None:
        cache = OpCache(name)
        _CACHES[name] = cache
    return cache


def caches() -> Iterator[OpCache]:
    return iter(_CACHES.values())


def enabled() -> bool:
    return _ENABLED


def configure(enabled: Optional[bool] = None,
              maxsize: Optional[int] = None) -> None:
    """Runtime knobs: toggle caching and/or resize every table.

    Disabling does not clear the tables; re-enabling resumes with the
    previously cached results (still valid — operations are pure).
    """
    global _ENABLED
    if enabled is not None:
        _ENABLED = bool(enabled)
    if maxsize is not None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        for cache in _CACHES.values():
            cache.maxsize = maxsize
            while len(cache._table) > maxsize:
                cache._table.popitem(last=False)
        global DEFAULT_MAXSIZE
        DEFAULT_MAXSIZE = maxsize


def clear(reset_counters: bool = False) -> None:
    """Drop every cached result (optionally also the counters).  The
    native tier's C-side memo tables are cleared in the same stroke so
    both layers forget together."""
    for cache in _CACHES.values():
        if reset_counters:
            cache.reset()
        else:
            cache.clear()
    try:
        from . import arena
        if arena.NATIVE is not None:
            arena.NATIVE.clear_memos()
    except Exception:
        pass


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
        hits += cache.hits
        misses += cache.misses
    return hits, misses


def cached(name: str, key: tuple, compute: Callable[[], object]):
    """Memoize ``compute()`` under ``key`` in the ``name`` table;
    falls straight through when caching is disabled."""
    if not _ENABLED:
        return compute()
    cache = cache_for(name)
    value = cache.get(key)
    if value is None:
        value = compute()
        cache.put(key, value)
    return value
