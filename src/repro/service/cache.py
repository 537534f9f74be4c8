"""Content-addressed analysis result cache.

A :class:`ResultCache` stores serialized analysis results keyed by
:class:`CacheKey` — the content hash of everything a run depends on:
``(program_hash, query, input_types, config_hash, domain, format)``.
Two layers:

* an **in-memory LRU** (bounded by ``max_memory_entries``) serving the
  hot keys of a long-lived service process;
* an optional **on-disk store** under ``cache_dir`` that persists
  across processes, laid out as
  ``objects/<program_hash>/<key_digest>.json`` so all results for one
  program version can be listed or dropped (invalidation) without
  touching the rest of the store.

Payloads are the JSON-ready objects of :mod:`repro.service.serialize`;
the cache never decodes them — it is a plain content-addressed blob
store with an index by program hash.  A memory-tier entry may also
hold its payload's JSON bytes (:meth:`ResultCache.payload_bytes`),
encoded on first demand so a served hit is not re-encoded; they live
and die with the entry.  A fresh result arrives as an
:class:`~repro.service.wire.EncodedPayload` that carries its bytes
already: hits and its disk record splice those instead.

Concurrency model (PR 5's server hangs many readers and writers off
one instance and many *processes* off one ``cache_dir``):

* **Within a process** the memory layer and the stats counters are
  guarded by an internal lock, so any number of threads may ``get`` /
  ``put`` / ``invalidate`` concurrently.
* **Across processes** safety rests on the filesystem: writes land via
  tempfile + atomic ``os.replace`` (a reader sees the old record or
  the new one, never a torn one), unreadable/partial records count as
  misses, and every directory listing / unlink tolerates entries
  vanishing underneath it.  A ``put`` whose program directory is
  concurrently removed (``invalidate_program`` / ``clear`` in another
  process) recreates the directory and retries once.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..fixpoint.engine import AnalysisConfig
from ..prolog.program import PredId, Program
from ..typegraph.grammar import Grammar
from .serialize import (FORMAT_VERSION, canonical_json, config_hash,
                        content_hash, grammar_content_hash, program_hash)
from .wire import EncodedPayload

__all__ = ["CacheKey", "CacheStats", "ResultCache", "make_key"]


@dataclass(frozen=True)
class CacheKey:
    """Everything an analysis run's outcome depends on."""

    program_hash: str
    query: PredId
    # canonical JSON text, grammar specs as content hashes; None = all Any
    input_types_key: Optional[str]
    config_hash: str
    domain: str
    version: int = FORMAT_VERSION

    @functools.cached_property
    def digest(self) -> str:
        return content_hash({
            "program": self.program_hash,
            "query": list(self.query),
            "input_types": self.input_types_key,
            "config": self.config_hash,
            "domain": self.domain,
            "version": self.version,
        })

    def to_obj(self) -> dict:
        return {
            "program_hash": self.program_hash,
            "query": list(self.query),
            "input_types_key": self.input_types_key,
            "config_hash": self.config_hash,
            "domain": self.domain,
            "version": self.version,
        }

    @classmethod
    def from_obj(cls, data: dict) -> "CacheKey":
        return cls(
            program_hash=data["program_hash"],
            query=(data["query"][0], int(data["query"][1])),
            input_types_key=data.get("input_types_key"),
            config_hash=data["config_hash"],
            domain=data["domain"],
            version=int(data.get("version", FORMAT_VERSION)),
        )


def make_key(source: Union[str, Program], query: PredId,
             input_types: Optional[Sequence[Union[str, Grammar]]] = None,
             config: Optional[AnalysisConfig] = None,
             baseline: bool = False) -> CacheKey:
    """Cache key for one :func:`repro.analyze` workload.

    Grammar-valued input types enter the key by their (memoized)
    content hash rather than a full re-encoding — interned grammars
    shared across many jobs are hashed once per process."""
    return CacheKey(
        program_hash=program_hash(source),
        query=(query[0], int(query[1])),
        input_types_key=(None if input_types is None
                         else canonical_json([
                             spec if isinstance(spec, str)
                             else ["g", grammar_content_hash(spec)]
                             for spec in input_types])),
        config_hash=config_hash(config),
        domain="trivial" if baseline else "type",
    )


@dataclass
class CacheStats:
    hits: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    seeds: int = 0
    evictions: int = 0
    invalidations: int = 0


class _Entry:
    """One memory-tier entry: its key, its payload, and the payload's
    JSON bytes once a response has needed them."""

    __slots__ = ("key", "payload", "encoded")

    def __init__(self, key: CacheKey, payload: dict) -> None:
        self.key = key
        self.payload = payload
        self.encoded: Optional[bytes] = None


def _record_bytes(key: CacheKey, payload: dict) -> bytes:
    """The on-disk record ``{"key": ..., "payload": ...}`` as
    ``json.dumps`` writes it, splicing in an :class:`EncodedPayload`'s
    bytes instead of encoding the payload again."""
    if not isinstance(payload, EncodedPayload):
        record = {"key": key.to_obj(), "payload": payload}
        return json.dumps(record).encode("utf-8")
    return b"".join((b'{"key": ', json.dumps(key.to_obj()).encode("utf-8"),
                     b', "payload": ', payload.wire, b"}"))


class ResultCache:
    """LRU-over-disk store for serialized analysis results.

    ``fsync=True`` (or ``REPRO_CACHE_FSYNC=1``) additionally fsyncs
    each record file before the atomic rename and the program
    directory after it, so a committed record survives a machine
    crash, not just a process crash.  Off by default: the atomic
    rename already guarantees readers never see a torn record, and
    the cache is a cache — a lost record is a recomputation, not
    corruption.
    """

    def __init__(self, cache_dir: Optional[Union[str, os.PathLike]] = None,
                 max_memory_entries: int = 256,
                 fsync: Optional[bool] = None) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.max_memory_entries = max_memory_entries
        self.fsync = (os.environ.get("REPRO_CACHE_FSYNC") == "1"
                      if fsync is None else bool(fsync))
        self._memory: "OrderedDict[str, _Entry]" = OrderedDict()
        self.stats = CacheStats()
        #: guards the memory layer and the stats counters; disk I/O
        #: happens outside it (atomic-rename protocol, see module doc).
        self._lock = threading.RLock()

    # -- paths ---------------------------------------------------------------

    def _objects_dir(self) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, "objects")

    def _program_dir(self, prog_hash: str) -> str:
        return os.path.join(self._objects_dir(), prog_hash)

    def _entry_path(self, key: CacheKey) -> str:
        return os.path.join(self._program_dir(key.program_hash),
                            key.digest + ".json")

    # -- core get/put --------------------------------------------------------

    def get_memory(self, key: CacheKey) -> Optional[dict]:
        """Probe the in-memory layer only — a cheap, non-blocking
        lookup the server's event loop can afford to run inline.  A
        hit counts toward the stats; a miss counts nothing (the caller
        is expected to fall through to :meth:`get`, which does the
        full accounting)."""
        digest = key.digest
        with self._lock:
            entry = self._memory.get(digest)
            if entry is None:
                return None
            self._memory.move_to_end(digest)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return entry.payload

    def get(self, key: CacheKey) -> Optional[dict]:
        """The stored payload, or None.  Disk hits are promoted into
        the memory layer."""
        digest = key.digest
        with self._lock:
            entry = self._memory.get(digest)
            if entry is not None:
                self._memory.move_to_end(digest)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                return entry.payload
        if self.cache_dir is not None:
            path = self._entry_path(key)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                payload = record["payload"]
            except (OSError, ValueError, KeyError, TypeError):
                payload = None  # unreadable/truncated record: a miss
            if payload is not None:
                with self._lock:
                    self._remember(key, payload)
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                return payload
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, key: CacheKey, payload: dict) -> None:
        """Store a payload under ``key`` in both layers.  Disk writes
        are atomic (tempfile + rename), so a crashed writer never
        leaves a half-written object behind and a concurrent reader
        never observes a torn record."""
        with self._lock:
            self._remember(key, payload)
            self.stats.puts += 1
        if self.cache_dir is None:
            return
        self._write_disk(key, payload)

    def seed(self, key: CacheKey, payload: dict) -> None:
        """Store a payload in the *memory* layer only — the replication
        primitive.  A replica seeded with another shard's result serves
        it as a memory hit after failover; the disk layer is left to
        the home shard (the store is shared, a second write would be
        redundant I/O for the same bytes)."""
        with self._lock:
            self._remember(key, payload)
            self.stats.seeds += 1

    def memory_digests(self) -> List[Tuple[str, str]]:
        """``(digest, program_hash)`` for every memory-tier entry —
        the cheap inventory behind the server's ``digest`` op, which
        the router's anti-entropy pass compares across replicas.  A
        lock and a list copy; never touches disk."""
        with self._lock:
            return [(digest, entry.key.program_hash)
                    for digest, entry in self._memory.items()]

    def get_by_digest(self, digest: str) -> Optional[Tuple[CacheKey, dict]]:
        """Memory-tier lookup by key digest (no :class:`CacheKey` in
        hand) — the fetch half of anti-entropy repair.  Does not count
        as a hit or bump LRU recency: repair reads are bookkeeping,
        not traffic."""
        with self._lock:
            entry = self._memory.get(digest)
            return None if entry is None else (entry.key, entry.payload)

    def payload_bytes(self, digest: str, payload: dict) -> bytes:
        """``payload`` as JSON bytes (what ``encode_message`` writes
        for it), encoded at most once per memory-tier entry.

        The bytes are kept on the entry under ``digest`` only while it
        holds this very payload object.  Eviction, invalidation,
        ``clear`` and replacement each drop the entry, and its bytes
        with it, so a recomputed result never comes back with the
        bytes of the computation it replaced.  The encode runs outside
        the lock, and an :class:`EncodedPayload` is never re-encoded."""
        if isinstance(payload, EncodedPayload):
            return payload.wire
        with self._lock:
            entry = self._memory.get(digest)
            if (entry is not None and entry.payload is payload
                    and entry.encoded is not None):
                return entry.encoded
        encoded = json.dumps(payload).encode("utf-8")
        with self._lock:
            entry = self._memory.get(digest)
            if entry is not None and entry.payload is payload:
                entry.encoded = encoded
        return encoded

    def _write_disk(self, key: CacheKey, payload: dict) -> None:
        data = _record_bytes(key, payload)
        directory = self._program_dir(key.program_hash)
        # Two rounds: a concurrent invalidate_program/clear may remove
        # the program directory between makedirs and the rename.
        for attempt in (0, 1):
            os.makedirs(directory, exist_ok=True)
            tmp_path = None
            try:
                fd, tmp_path = tempfile.mkstemp(dir=directory,
                                                suffix=".tmp")
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                    if self.fsync:
                        handle.flush()
                        os.fsync(handle.fileno())
                os.replace(tmp_path, self._entry_path(key))
                if self.fsync:
                    self._fsync_dir(directory)
                return
            except FileNotFoundError:
                # directory vanished underneath us; retry once
                if tmp_path is not None:
                    try:
                        os.unlink(tmp_path)
                    except OSError:
                        pass
                if attempt:
                    raise
            except BaseException:
                if tmp_path is not None:
                    try:
                        os.unlink(tmp_path)
                    except OSError:
                        pass
                raise

    @staticmethod
    def _fsync_dir(directory: str) -> None:
        """Durably commit a rename by fsyncing its directory (best
        effort — not every platform allows opening a directory)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _remember(self, key: CacheKey, payload: dict) -> None:
        digest = key.digest
        self._memory[digest] = _Entry(key, payload)
        self._memory.move_to_end(digest)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # -- program-level index -------------------------------------------------

    def keys_for_program(self, prog_hash: str) -> List[CacheKey]:
        """All stored keys for one program version (both layers)."""
        keys: Dict[str, CacheKey] = {}
        with self._lock:
            memory_items = list(self._memory.items())
        for digest, entry in memory_items:
            if entry.key.program_hash == prog_hash:
                keys[digest] = entry.key
        for key in self._disk_keys(prog_hash):
            keys.setdefault(key.digest, key)
        return list(keys.values())

    def _disk_keys(self, prog_hash: str) -> Iterator[CacheKey]:
        """Keys of one program's well-formed on-disk records."""
        if self.cache_dir is None:
            return
        directory = self._program_dir(prog_hash)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(directory, name), "r",
                          encoding="utf-8") as handle:
                    record = json.load(handle)
                if "payload" in record:
                    yield CacheKey.from_obj(record["key"])
            except (OSError, ValueError, KeyError, TypeError):
                continue

    # -- invalidation --------------------------------------------------------

    def invalidate(self, key: CacheKey) -> bool:
        """Drop one entry from both layers; True if anything existed."""
        with self._lock:
            existed = self._memory.pop(key.digest, None) is not None
        if self.cache_dir is not None:
            try:
                os.unlink(self._entry_path(key))
                existed = True
            except OSError:
                pass
        if existed:
            with self._lock:
                self.stats.invalidations += 1
        return existed

    def invalidate_program(self, prog_hash: str) -> int:
        """Drop every entry for one program version; returns a count."""
        dropped = 0
        for key in self.keys_for_program(prog_hash):
            if self.invalidate(key):
                dropped += 1
        return dropped

    def flush(self) -> int:
        """Write every in-memory entry through to disk (idempotent;
        entries already on disk are skipped).  This is what a draining
        server calls on shutdown so results computed while the store
        was busy — or before a ``cache_dir`` existed — survive the
        process; returns the number of records written."""
        if self.cache_dir is None:
            return 0
        with self._lock:
            entries = list(self._memory.values())
        written = 0
        for entry in entries:
            if not os.path.exists(self._entry_path(entry.key)):
                self._write_disk(entry.key, entry.payload)
                written += 1
        return written

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
        if self.cache_dir is None:
            return
        try:
            program_dirs = os.listdir(self._objects_dir())
        except OSError:
            return
        for prog_hash in program_dirs:
            directory = self._program_dir(prog_hash)
            try:
                for name in os.listdir(directory):
                    try:
                        os.unlink(os.path.join(directory, name))
                    except OSError:
                        pass
                os.rmdir(directory)
            except OSError:
                pass

    def __len__(self) -> int:
        """Number of distinct stored entries across both layers."""
        with self._lock:
            digests = set(self._memory)
        if self.cache_dir is not None:
            try:
                program_dirs = os.listdir(self._objects_dir())
            except OSError:
                program_dirs = []
            for prog_hash in program_dirs:
                try:
                    names = os.listdir(self._program_dir(prog_hash))
                except OSError:
                    continue
                digests.update(name[:-5] for name in names
                               if name.endswith(".json"))
        return len(digests)
