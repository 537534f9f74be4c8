"""Sharded analysis cluster: ``repro router``, the fleet front door.

PR 5's ``repro serve`` keeps intern tables, arenas, and the opcache
warm — inside exactly one process.  The router scales that *warm
state* horizontally: it consistent-hashes every workload's
``CacheKey.program_hash`` across N backend ``repro serve`` shards, so
each shard stays hot for *its* slice of the program space (memory
result cache, intern tables, arena symbols, opcache), while a shared
content-addressed disk :class:`~repro.service.cache.ResultCache`
(every shard started with the same ``--cache-dir``) acts as the L2
that makes any result computed on one shard a disk hit on every
other — cross-shard promotion falls out of the cache's atomic-rename
object store rather than a bespoke replication protocol.

Topology::

    clients ──nd-JSON──▶ router ──nd-JSON──▶ shard 1 (repro serve)
                           │     (pooled)  ▶ shard 2      │
                           │               ▶ shard N      ▼
                           └── stats fan-out     shared --cache-dir (L2)

The router speaks the same :mod:`repro.service.transport` protocol on
both sides, so ``ServeClient`` works unchanged against it and shard
responses are forwarded as raw bytes (no re-serialization on the hot
path).  Service guarantees on top of routing:

* **connection pools** — at most ``pool_size`` in-flight requests per
  shard over persistent connections; excess requests queue fairly in
  the router;
* **health checks** — a background prober marks shards down after
  ``down_after`` consecutive failures and back up on recovery; mark
  up/down never mutates the hash ring, so rehash on membership change
  is deterministic: keys of an unavailable shard spill to the next
  replica on the ring and return home when it does;
* **failover** — idempotent ops (``analyze``/``batch``/reads) retry
  on the next replica with exponential backoff, bounded by
  ``retries`` extra passes; non-idempotent ops never retry;
* **graceful drain** — ``drain-shard`` takes a shard out of rotation
  while its in-flight requests complete; ``shutdown`` drains the
  router itself (and any shards it spawned with ``--spawn``);
* **supervision** — the health loop detects spawned-shard deaths
  (``Popen.poll``), prints the tail of the shard's stderr log, and
  respawns the original argv on the same port with exponential
  backoff; a crash-loop breaker stops restarting after K deaths
  inside a sliding window.  Un-spawned shards keep the skip-in-ring
  behavior — the router cannot resurrect a process it does not own;
* **live membership** — ``add-shard`` joins a running shard to the
  ring after a health probe passes (only its consistent-hash slice
  moves), ``remove-shard`` drains then deletes; both are journaled;
* **replicated writes** — every fresh analyze result (one the
  answering shard just computed: a first read, a re-analysis after
  ``invalidate``, or a failover recompute) is asynchronously
  ``seed``-ed into the next ``replicate - 1`` replicas' *memory*
  tiers, so failover lands on warm memory instead of disk-L2 (the
  shared store already covers durability).  This is the fleet's one
  replica-repair path: a replica that lost its copy gets it back the
  next time the result is computed fresh, and a restarted shard
  serves its first reads from the shared disk store;
* **durable membership** — every membership/supervision event is
  journaled to an append-only JSON-lines file (``--journal``); on
  startup the journal replays its ``add-shard``/``remove-shard`` ops,
  so externally attached shards survive a router restart;
* **router redundancy** — a standby started with ``--sync-from
  HOST:PORT`` polls the primary's ``sync-membership`` op and mirrors
  its ring (its own health loop still decides up/down); it refuses
  membership writes while the primary answers and promotes itself
  once the primary has been unreachable for ``down_after``
  consecutive sync polls.  Clients reach the pair through
  ``ServeClient(endpoints=[...])`` failover;
* **fleet observability** — ``stats`` fans out to every live shard
  and merges hit rates, queue depths, and latency summaries next to
  the router's own end-to-end percentiles.

Cross-host deployments are described once in a ``fleet.json`` spec
(``--fleet``): the routers, the shard addresses, the replicate factor,
and the shared cache directory.  Remote shards the router did not
spawn keep **skip-only supervision** semantics — a dead remote shard
is marked down and skipped in the ring, never restarted (the router
cannot resurrect a process it does not own); it returns to rotation
when its operator brings it back.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import sys
import time
from bisect import bisect_right
from collections import OrderedDict, deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .cache import ResultCache
from .serialize import program_hash
from .server import RequestError, ServerStats
from .transport import (LINE_LIMIT, AsyncLineConnection, ConnectError,
                        LineServer, ProtocolError, decode_message,
                        encode_message, error_envelope, framed_payload,
                        fresh_digest, ok_envelope, splice_payload)

__all__ = ["HashRing", "ShardState", "ClusterRouter", "MembershipJournal",
           "DEFAULT_ROUTER_PORT", "load_fleet", "router_main"]

DEFAULT_ROUTER_PORT = 7870

#: Ops safe to replay on another shard after a transport failure (a
#: pure function of the cache key, or read-only).
_IDEMPOTENT_OPS = frozenset({"analyze", "check", "slice", "batch",
                             "ping", "stats", "cache-info"})

#: Transport failures that trigger failover (a shard that *answered*
#: — even with an error envelope — does not).
_FORWARD_ERRORS = (ConnectionError, ConnectError, OSError,
                   asyncio.IncompleteReadError)


# -- consistent hashing ------------------------------------------------------

def _ring_hash(text: str) -> int:
    """Stable 64-bit ring coordinate (never Python's salted hash)."""
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent hash ring with virtual nodes.

    Each node contributes ``vnodes`` points; a key is owned by the
    first point clockwise of its own hash.  Membership changes move
    only the keys of the node that joined or left (~1/N of the space),
    which is the property that keeps the other shards' warm caches
    warm through a membership change — the tests pin it.
    """

    def __init__(self, nodes: Iterable[str] = (),
                 vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._nodes: List[str] = []
        self._points: List[int] = []
        self._owners: List[str] = []
        self._preference_memo: "OrderedDict[str, Tuple[str, ...]]" = \
            OrderedDict()
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def _rebuild(self) -> None:
        points = []
        for node in self._nodes:
            for i in range(self.vnodes):
                points.append((_ring_hash("%s#%d" % (node, i)), node))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [n for _, n in points]
        self._preference_memo.clear()

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError("node %r already on the ring" % node)
        self._nodes.append(node)
        self._rebuild()

    def remove(self, node: str) -> None:
        self._nodes.remove(node)
        self._rebuild()

    def preference(self, key: str) -> Tuple[str, ...]:
        """Every node, in deterministic failover order for ``key``:
        the owner first, then each distinct node walking clockwise."""
        memo = self._preference_memo
        hit = memo.get(key)
        if hit is not None:
            memo.move_to_end(key)
            return hit
        if not self._nodes:
            return ()
        start = bisect_right(self._points, _ring_hash(key))
        order: List[str] = []
        seen = set()
        total = len(self._points)
        for step in range(total):
            node = self._owners[(start + step) % total]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) == len(self._nodes):
                    break
        result = tuple(order)
        memo[key] = result
        if len(memo) > 8192:
            memo.popitem(last=False)
        return result

    def node_for(self, key: str) -> str:
        return self.preference(key)[0]


# -- shard handle ------------------------------------------------------------

class ShardState:
    """One backend shard: address, health, and a bounded pool of
    persistent connections."""

    def __init__(self, shard_id: str, host: str, port: int,
                 pool_size: int = 4,
                 connect_timeout: float = 5.0) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.id = shard_id
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.connect_timeout = connect_timeout
        self.status = "up"          # "up" | "down" | "draining"
        self.inflight = 0
        self.forwarded = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.process = None         # Popen when the router spawned it
        # -- supervision (spawned shards only) --
        self.spawn_argv: Optional[List[str]] = None  # respawn recipe
        self.log_path: Optional[str] = None          # stderr capture
        self.restarts = 0
        self.restart_failures = 0
        self.recent_deaths: "deque[float]" = deque(maxlen=32)
        self.next_restart_at: Optional[float] = None  # monotonic
        self.death_handled = False   # this death already noted?
        self.breaker_tripped = False
        self.last_probe_at: Optional[float] = None    # wall clock
        self._idle: "deque[AsyncLineConnection]" = deque()
        self._slots: Optional[asyncio.Semaphore] = None

    @property
    def available(self) -> bool:
        return self.status == "up"

    def _semaphore(self) -> asyncio.Semaphore:
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.pool_size)
        return self._slots

    async def request_raw(self, line: bytes,
                          timeout: Optional[float] = None) -> bytes:
        """One pooled round trip of pre-framed bytes.  Transport
        failures close the connection and propagate; the caller does
        failover accounting."""
        async with self._semaphore():
            self.inflight += 1
            conn = None
            try:
                conn = self._idle.pop() if self._idle else None
                if conn is None:
                    conn = await asyncio.wait_for(
                        AsyncLineConnection.open(self.host, self.port,
                                                 limit=LINE_LIMIT),
                        self.connect_timeout)
                response = await asyncio.wait_for(
                    conn.request_raw(line), timeout)
                self._idle.append(conn)
                self.forwarded += 1
                return response
            except BaseException:
                if conn is not None:
                    conn.close()
                raise
            finally:
                self.inflight -= 1

    async def request(self, message: dict,
                      timeout: Optional[float] = None) -> dict:
        return decode_message(await self.request_raw(
            encode_message(message), timeout))

    def note_failure(self, down_after: int) -> bool:
        """Record a transport failure; returns True when this crossed
        the mark-down threshold."""
        self.failures += 1
        self.consecutive_failures += 1
        if (self.status == "up"
                and self.consecutive_failures >= down_after):
            self.mark_down()
            return True
        return False

    def note_success(self) -> None:
        self.consecutive_failures = 0

    def mark_down(self) -> None:
        if self.status != "draining":
            self.status = "down"
        self.close_idle()

    def mark_up(self) -> None:
        if self.status == "down":
            self.status = "up"
        self.consecutive_failures = 0

    def close_idle(self) -> None:
        while self._idle:
            self._idle.pop().close()

    def info(self) -> dict:
        return {
            "status": self.status,
            "inflight": self.inflight,
            "forwarded": self.forwarded,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "idle_connections": len(self._idle),
            "pool_size": self.pool_size,
            "spawned": self.process is not None,
            "supervised": self.spawn_argv is not None,
            "restarts": self.restarts,
            "restart_failures": self.restart_failures,
            "recent_deaths": len(self.recent_deaths),
            "breaker_tripped": self.breaker_tripped,
            "restart_pending": self.next_restart_at is not None,
            "last_probe_at": self.last_probe_at,
            "log_path": self.log_path,
        }


# -- the router --------------------------------------------------------------

class RouterStats:
    """Router-level counters and an end-to-end latency ring."""

    __slots__ = ("started", "requests", "routed", "local", "retries",
                 "failovers", "errors", "latencies", "restarts",
                 "restart_failures", "breaker_trips", "shards_added",
                 "shards_removed", "replications",
                 "replication_failures", "sync_pulls", "sync_failures")

    def __init__(self) -> None:
        self.started = time.time()
        self.requests = 0
        self.routed = 0
        self.local = 0
        self.retries = 0
        self.failovers = 0
        self.errors = 0
        self.latencies: "deque[float]" = deque(maxlen=4096)
        self.restarts = 0
        self.restart_failures = 0
        self.breaker_trips = 0
        self.shards_added = 0
        self.shards_removed = 0
        self.replications = 0
        self.replication_failures = 0
        self.sync_pulls = 0
        self.sync_failures = 0

    def latency_summary(self) -> dict:
        return ServerStats.latency_summary(self)  # same ring shape


class MembershipJournal:
    """Durable append-only record of membership and supervision events.

    One JSON object per line, ``fsync``-free (a lost tail costs at
    most the most recent events, and replay only re-applies membership
    *ops* anyway).  A torn final line — the process died mid-append —
    is ignored on replay, as is any line that does not parse: the
    journal must never stop a router from starting.

    ``seq`` numbers every appended event monotonically, continuing
    from whatever the file already holds, so a standby comparing
    ``sync-membership`` responses can tell whether the primary's view
    moved.

    The journal grows without bound under churn (every death, restart,
    and breaker trip is an event), but replay only ever needs the
    membership *outcome*.  When the file exceeds
    ``compact_threshold`` bytes at open time the router calls
    :meth:`compact` with its live membership snapshot, which rewrites
    the file to just those entries — ``seq`` keeps counting from the
    old maximum, so standbys never see the sequence move backwards.
    """

    #: Default on-disk size (bytes) above which the router compacts
    #: the journal when it opens it.
    COMPACT_BYTES = 64 * 1024

    def __init__(self, path: str,
                 compact_threshold: int = COMPACT_BYTES) -> None:
        self.path = str(path)
        self.compact_threshold = compact_threshold
        self.compactions = 0
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        #: Entries already on disk when the journal was opened, oldest
        #: first — the router replays membership ops out of these.
        self._torn_tail = False
        self.replayed: List[dict] = self._read()
        self.seq = max([entry.get("seq") or 0
                        for entry in self.replayed] + [0])
        self._handle = None

    def _read(self) -> List[dict]:
        entries: List[dict] = []
        try:
            with open(self.path, "rb") as handle:
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        self._torn_tail = True
                        break  # torn final line: crash mid-append
                    try:
                        entry = json.loads(raw)
                    except ValueError:
                        continue
                    if isinstance(entry, dict):
                        entries.append(entry)
        except OSError:
            return []
        return entries

    def append(self, entry: dict) -> None:
        self.seq += 1
        record = dict(entry, seq=self.seq)
        if self._handle is None:
            self._handle = open(self.path, "ab", buffering=0)
            if self._torn_tail:
                # Terminate the torn fragment so the new event gets
                # its own line instead of being glued to garbage.
                self._handle.write(b"\n")
                self._torn_tail = False
        self._handle.write(
            json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")

    def size(self) -> int:
        """Current on-disk size in bytes (0 when absent)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def needs_compaction(self) -> bool:
        return (bool(self.compact_threshold)
                and self.size() >= self.compact_threshold)

    def compact(self, snapshot: Sequence[dict]) -> int:
        """Rewrite the journal to ``snapshot`` — the live membership
        as add-shard entries — dropping the event history it encodes.
        Atomic (tempfile + ``os.replace``): a crash mid-compaction
        leaves the old journal intact.  Each snapshot entry is stamped
        with a fresh ``seq`` continuing past the old maximum, so a
        replay of the compacted journal builds the identical ring and
        downstream sequence comparisons stay monotone.  Returns the
        number of entries dropped."""
        self.close()
        dropped = len(self.replayed) - len(snapshot)
        temp_path = self.path + ".compact"
        records = []
        with open(temp_path, "wb") as handle:
            for entry in snapshot:
                self.seq += 1
                record = dict(entry, seq=self.seq)
                records.append(record)
                handle.write(json.dumps(record, sort_keys=True)
                             .encode("utf-8") + b"\n")
        os.replace(temp_path, self.path)
        self._torn_tail = False
        self.replayed = records
        self.compactions += 1
        return dropped

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _parse_shard_address(text: str) -> Tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError("shard address must be HOST:PORT, got %r"
                         % text)
    return host, int(port_text)


class ClusterRouter:
    """The consistent-hash front door over N ``repro serve`` shards.

    Usable embedded (tests run shards and router in one event loop) or
    through :func:`router_main`.  All public coroutines must run on
    the loop that called :meth:`start`.
    """

    def __init__(self, shards: Sequence[Union[str, Tuple[str, int]]],
                 host: str = "127.0.0.1", port: int = 0,
                 cache_dir: Optional[str] = None,
                 vnodes: int = 64, pool_size: int = 4,
                 retries: int = 2, backoff: float = 0.05,
                 health_interval: float = 1.0, down_after: int = 2,
                 request_timeout: Optional[float] = 300.0,
                 replicate: int = 1,
                 restart_backoff: float = 0.5,
                 restart_backoff_max: float = 30.0,
                 breaker_deaths: int = 5,
                 breaker_window: float = 30.0,
                 faults=None,
                 journal_path: Optional[str] = None,
                 journal_compact_bytes: Optional[int] = None,
                 sync_from: Optional[Union[str, Tuple[str, int]]] = None,
                 shard_log_max_bytes: Optional[int] = None) -> None:
        if not shards and sync_from is None and journal_path is None:
            raise ValueError("a router needs at least one shard")
        if replicate < 1:
            raise ValueError("replicate must be >= 1")
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.retries = retries
        self.backoff = backoff
        self.health_interval = health_interval
        self.down_after = down_after
        self.request_timeout = request_timeout
        self.replicate = replicate
        self.restart_backoff = restart_backoff
        self.restart_backoff_max = restart_backoff_max
        self.breaker_deaths = breaker_deaths
        self.breaker_window = breaker_window
        self.faults = faults
        self.shard_log_max_bytes = shard_log_max_bytes
        self.sync_from: Optional[Tuple[str, int]] = (
            None if sync_from is None
            else _parse_shard_address(sync_from)
            if isinstance(sync_from, str)
            else (sync_from[0], int(sync_from[1])))
        self.stats = RouterStats()
        self.pool_size = pool_size
        self.shards: Dict[str, ShardState] = {}
        for spec in shards:
            shard_host, shard_port = (
                _parse_shard_address(spec) if isinstance(spec, str)
                else (spec[0], int(spec[1])))
            shard_id = "%s:%d" % (shard_host, shard_port)
            if shard_id in self.shards:
                raise ValueError("duplicate shard %s" % shard_id)
            self.shards[shard_id] = ShardState(shard_id, shard_host,
                                               shard_port, pool_size)
        self.ring = HashRing(self.shards, vnodes=vnodes)
        #: shared L2 handle — observability only; the shards own all
        #: reads/writes of the store.
        self.l2 = (ResultCache(cache_dir) if cache_dir is not None
                   else None)
        self._server: Optional[LineServer] = None
        self._health_task: Optional[asyncio.Task] = None
        self._sync_task: Optional[asyncio.Task] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._draining = False
        self._inflight_requests = 0
        #: membership/supervision journal: the last 64 events, newest
        #: last, surfaced by ``router-info``.
        self.membership_log: "deque[dict]" = deque(maxlen=64)
        #: durable journal behind the in-memory log; every event is
        #: written through, and add-shard/remove-shard ops replay on
        #: startup so attached shards survive a router restart.
        self.journal = (MembershipJournal(
            journal_path,
            compact_threshold=(MembershipJournal.COMPACT_BYTES
                               if journal_compact_bytes is None
                               else journal_compact_bytes))
            if journal_path is not None else None)
        self.journal_replayed = 0
        #: standby bookkeeping: a router with ``sync_from`` mirrors
        #: that primary's membership and refuses membership writes
        #: until the primary stops answering sync polls.
        self.primary_reachable = self.sync_from is not None
        self.last_sync_at: Optional[float] = None
        self._sync_misses = 0
        #: jitter source for the health loop — process-local on
        #: purpose, so N routers probing one fleet desynchronize.
        self._jitter = random.Random(os.getpid() ^ int(time.time()))
        #: in-flight background replication pushes a drain must wait
        #: out.
        self._replication_tasks: set = set()
        #: benchmark name -> program_hash.
        self._benchmark_hashes: Dict[str, str] = {}
        if self.journal is not None and self.journal.replayed:
            self._replay_membership(self.journal.replayed)
            if self.journal.needs_compaction():
                self._compact_journal()
        if not self.shards and self.sync_from is None:
            raise ValueError(
                "no shards configured and the journal replayed none — "
                "give shards, or --sync-from a primary")

    def _replay_membership(self, entries: Sequence[dict]) -> None:
        """Re-apply the journal's ``add-shard``/``remove-shard`` ops,
        in order.  Only membership *ops* replay: deaths, restarts, and
        breaker trips describe processes a restarted router no longer
        owns, and spawned shards are reconstructed by ``--spawn`` on
        fresh ephemeral ports, not resurrected from history.  A
        replayed shard that is actually gone is simply marked down by
        the first health probe — same skip-in-ring semantics as any
        other remote shard."""
        pool_size = self.pool_size
        for entry in entries:
            event = entry.get("event")
            shard_id = entry.get("shard")
            if not isinstance(shard_id, str):
                continue
            if event in ("add-shard", "sync-add"):
                host = entry.get("host")
                port = entry.get("port")
                if (shard_id in self.shards
                        or not isinstance(host, str)
                        or not isinstance(port, int)):
                    continue
                self.shards[shard_id] = ShardState(shard_id, host, port,
                                                   pool_size)
                self.ring.add(shard_id)
                self.journal_replayed += 1
            elif event in ("remove-shard", "sync-remove"):
                shard = self.shards.pop(shard_id, None)
                if shard is not None:
                    self.ring.remove(shard_id)
                    self.journal_replayed += 1
        if self.journal_replayed:
            print("repro router: journal %s replayed %d membership "
                  "op(s) (%d shard(s) on the ring)"
                  % (self.journal.path, self.journal_replayed,
                     len(self.shards)), file=sys.stderr)

    def _compact_journal(self) -> None:
        """Rewrite an oversized journal down to the live membership:
        one ``add-shard`` entry per shard currently on the ring.
        Replaying the compacted journal reconstructs the identical
        ring — the event history (deaths, restarts, drains) it
        replaces never influenced replay anyway."""
        snapshot = [{"event": "add-shard", "shard": shard_id,
                     "host": shard.host, "port": shard.port,
                     "at": round(time.time(), 3), "compacted": True}
                    for shard_id, shard in sorted(self.shards.items())]
        dropped = self.journal.compact(snapshot)
        print("repro router: journal %s compacted to %d membership "
              "entr%s (%d event(s) dropped)"
              % (self.journal.path, len(snapshot),
                 "y" if len(snapshot) == 1 else "ies", dropped),
              file=sys.stderr)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._shutdown_event = asyncio.Event()
        self._server = LineServer(self._serve_line, self.host,
                                  self.port, limit=LINE_LIMIT,
                                  faults=self.faults)
        await self._server.start()
        self.port = self._server.port
        self._health_task = asyncio.ensure_future(self._health_loop())
        if self.sync_from is not None:
            self._sync_task = asyncio.ensure_future(self._sync_loop())

    def _journal(self, event: str, shard_id: str, **detail) -> None:
        entry = dict(detail, event=event, shard=shard_id,
                     at=round(time.time(), 3))
        self.membership_log.append(entry)
        if self.journal is not None:
            try:
                self.journal.append(entry)
            except OSError as error:
                # Never let a full/broken disk take down routing; the
                # in-memory log still has the event.
                print("repro router: journal write failed: %s" % error,
                      file=sys.stderr)

    async def serve_until_shutdown(self) -> None:
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        await self.drain_and_close()

    def trigger_shutdown(self) -> None:
        self._draining = True
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def drain_and_close(self, shutdown_spawned: bool = True) -> None:
        """Stop accepting, let in-flight requests finish, close shard
        pools (and shut down shards this router spawned)."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        deadline = time.monotonic() + (self.request_timeout or 60.0)
        while ((self._inflight_requests > 0
                or self._replication_tasks)
               and time.monotonic() < deadline):
            await asyncio.sleep(0.02)
        for task in (self._health_task, self._sync_task):
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if shutdown_spawned:
            await self._shutdown_spawned_shards()
        for shard in self.shards.values():
            shard.close_idle()
        if self._server is not None:
            self._server.hang_up()
            await self._server.wait_closed()
        if self.journal is not None:
            self.journal.close()

    async def _shutdown_spawned_shards(self) -> None:
        loop = asyncio.get_running_loop()
        for shard in list(self.shards.values()):
            if shard.process is None:
                continue
            try:
                await shard.request({"id": None, "op": "shutdown"},
                                    timeout=10.0)
            except Exception:
                pass
            try:
                await asyncio.wait_for(
                    loop.run_in_executor(None, shard.process.wait), 30.0)
            except Exception:
                shard.process.terminate()

    # -- health & supervision ------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            # Jittered cadence (±50%): N routers probing one fleet —
            # or one router restarted in lockstep with its shards —
            # must not synchronize their probe bursts.
            await asyncio.sleep(self.health_interval
                                * self._jitter.uniform(0.5, 1.5))
            await asyncio.gather(*(self._check_shard(shard)
                                   for shard in list(self.shards.values())),
                                 return_exceptions=True)

    async def _check_shard(self, shard: ShardState) -> None:
        """One probe over a dedicated connection — never through the
        pool, so a shard busy with long analyses still answers.
        Spawned shards get supervision on top: a dead process is
        detected here, logged, and queued for restart."""
        if shard.status == "draining":
            return
        shard.last_probe_at = time.time()
        if shard.process is not None and shard.process.poll() is not None:
            if not shard.death_handled:
                self._note_shard_death(
                    shard, "exited with code %s" % shard.process.poll())
            if (shard.next_restart_at is not None
                    and time.monotonic() >= shard.next_restart_at):
                await self._restart_shard(shard)
            return
        probe_timeout = max(1.0, min(5.0, self.health_interval * 2))
        conn = None
        try:
            conn = await asyncio.wait_for(
                AsyncLineConnection.open(shard.host, shard.port),
                probe_timeout)
            response = await asyncio.wait_for(
                conn.request({"id": None, "op": "ping"}), probe_timeout)
            healthy = bool(response.get("ok"))
        except (asyncio.TimeoutError, ProtocolError) + _FORWARD_ERRORS:
            healthy = False
        finally:
            if conn is not None:
                conn.close()
        if healthy:
            if shard.status == "down":
                shard.mark_up()
                print("repro router: shard %s back up" % shard.id,
                      file=sys.stderr)
            else:
                shard.note_success()
        else:
            if shard.note_failure(self.down_after):
                print("repro router: shard %s marked down" % shard.id,
                      file=sys.stderr)

    def _deaths_in_window(self, shard: ShardState) -> int:
        cutoff = time.monotonic() - self.breaker_window
        return sum(1 for at in shard.recent_deaths if at >= cutoff)

    def _note_shard_death(self, shard: ShardState, what: str) -> None:
        """Record one death of a supervised shard: mark it down, dump
        crash evidence, and either schedule a backed-off restart or
        trip the crash-loop breaker."""
        shard.recent_deaths.append(time.monotonic())
        shard.death_handled = True
        shard.mark_down()
        print("repro router: shard %s died (%s)" % (shard.id, what),
              file=sys.stderr)
        self._print_shard_log_tail(shard)
        deaths = self._deaths_in_window(shard)
        if deaths >= self.breaker_deaths:
            shard.breaker_tripped = True
            shard.next_restart_at = None
            self.stats.breaker_trips += 1
            self._journal("breaker-tripped", shard.id, deaths=deaths,
                          window=self.breaker_window)
            print("repro router: shard %s crash-looping (%d deaths in "
                  "%.0fs) — breaker tripped, no further restarts "
                  "(remove-shard + add-shard to reset)"
                  % (shard.id, deaths, self.breaker_window),
                  file=sys.stderr)
            return
        if shard.spawn_argv is None:
            # Not ours to restart: keep today's skip-in-ring behavior.
            self._journal("shard-death", shard.id, supervised=False)
            return
        delay = min(self.restart_backoff_max,
                    self.restart_backoff * (2 ** max(0, deaths - 1)))
        shard.next_restart_at = time.monotonic() + delay
        self._journal("shard-death", shard.id, supervised=True,
                      restart_in=round(delay, 3), deaths_in_window=deaths)
        print("repro router: restarting shard %s in %.2fs (death %d "
              "in window)" % (shard.id, delay, deaths), file=sys.stderr)

    def _print_shard_log_tail(self, shard: ShardState,
                              lines: int = 20) -> None:
        if not shard.log_path:
            return
        try:
            with open(shard.log_path, "rb") as handle:
                tail = handle.readlines()[-lines:]
        except OSError:
            return
        if not tail:
            return
        print("repro router: last %d line(s) of %s:"
              % (len(tail), shard.log_path), file=sys.stderr)
        for raw in tail:
            print("  | %s" % raw.decode("utf-8", "replace").rstrip(),
                  file=sys.stderr)

    def _spawn_shard_process(self, shard: ShardState):
        """Respawn a supervised shard's original argv (same port).
        Blocking — runs in an executor; split out so tests can
        monkeypatch the spawn itself."""
        from .client import _spawn_ready
        process, _, port = _spawn_ready(
            list(shard.spawn_argv), ready_timeout=60.0,
            what="repro serve (restart of %s)" % shard.id,
            stderr_path=shard.log_path,
            log_max_bytes=self.shard_log_max_bytes)
        if port != shard.port:
            process.terminate()
            raise RuntimeError(
                "restarted shard came up on port %d, expected %d"
                % (port, shard.port))
        return process

    async def _restart_shard(self, shard: ShardState) -> None:
        shard.next_restart_at = None  # claimed: no concurrent attempt
        loop = asyncio.get_running_loop()
        try:
            process = await loop.run_in_executor(
                None, self._spawn_shard_process, shard)
        except Exception as error:
            shard.restart_failures += 1
            self.stats.restart_failures += 1
            # A failed restart counts as a death: it feeds the breaker
            # and pushes the next attempt further out.
            self._note_shard_death(shard, "restart failed: %s" % error)
            return
        shard.process = process
        shard.restarts += 1
        self.stats.restarts += 1
        shard.death_handled = False
        shard.mark_up()
        self._journal("shard-restarted", shard.id, pid=process.pid,
                      restarts=shard.restarts)
        print("repro router: shard %s restarted (pid %d, restart #%d)"
              % (shard.id, process.pid, shard.restarts), file=sys.stderr)

    # -- standby membership sync ---------------------------------------------

    async def _sync_loop(self) -> None:
        """Standby mode: poll the primary's ``sync-membership`` op on
        the health cadence and mirror its ring.  ``down_after``
        consecutive failed polls promote this router — it keeps the
        last-synced membership and starts accepting membership writes
        itself; if the primary later answers again, it demotes back."""
        host, port = self.sync_from
        while True:
            await asyncio.sleep(self.health_interval
                                * self._jitter.uniform(0.5, 1.5))
            membership = None
            conn = None
            try:
                conn = await asyncio.wait_for(
                    AsyncLineConnection.open(host, port), 5.0)
                response = await asyncio.wait_for(
                    conn.request({"id": None, "op": "sync-membership"}),
                    10.0)
                if response.get("ok"):
                    membership = response.get("result") or {}
            except (asyncio.TimeoutError, ProtocolError,
                    *_FORWARD_ERRORS):
                pass
            finally:
                if conn is not None:
                    conn.close()
            if membership is None:
                self.stats.sync_failures += 1
                self._sync_misses += 1
                if (self.primary_reachable
                        and self._sync_misses >= self.down_after):
                    self.primary_reachable = False
                    self._journal("standby-promoted",
                                  "%s:%d" % (host, port),
                                  misses=self._sync_misses)
                    print("repro router: primary %s:%d unreachable "
                          "after %d sync poll(s) — promoted; keeping "
                          "last-known membership and accepting "
                          "membership ops"
                          % (host, port, self._sync_misses),
                          file=sys.stderr)
                continue
            self._sync_misses = 0
            if not self.primary_reachable:
                self.primary_reachable = True
                self._journal("standby-demoted", "%s:%d" % (host, port))
                print("repro router: primary %s:%d back — standby "
                      "demoted, membership ops refused here again"
                      % (host, port), file=sys.stderr)
            self.stats.sync_pulls += 1
            self.last_sync_at = time.time()
            self._apply_membership(membership)

    def _apply_membership(self, membership: dict) -> None:
        """Reconcile this router's ring with the primary's view.
        Shards this router spawned are never dropped (their lifecycle
        is ours); remote ones follow the primary exactly.  Up/down is
        *not* mirrored — the standby's own health loop probes and
        decides — but ``draining`` is, so both routers route around a
        drain the operator started on either of them."""
        listed: Dict[str, dict] = {}
        for spec in membership.get("shards") or ():
            if (isinstance(spec, dict) and isinstance(spec.get("id"), str)
                    and isinstance(spec.get("host"), str)
                    and isinstance(spec.get("port"), int)):
                listed[spec["id"]] = spec
        pool_size = self.pool_size
        for shard_id, spec in listed.items():
            shard = self.shards.get(shard_id)
            if shard is None:
                shard = ShardState(shard_id, spec["host"], spec["port"],
                                   pool_size)
                self.shards[shard_id] = shard
                self.ring.add(shard_id)
                self._journal("sync-add", shard_id, host=spec["host"],
                              port=spec["port"])
                print("repro router: synced shard %s from primary "
                      "(%d shards)" % (shard_id, len(self.shards)),
                      file=sys.stderr)
            if spec.get("status") == "draining":
                if shard.status == "up":
                    shard.status = "draining"
            elif shard.status == "draining":
                shard.status = "up"
        for shard_id in list(self.shards):
            if shard_id in listed:
                continue
            shard = self.shards[shard_id]
            if shard.process is not None:
                continue
            shard.close_idle()
            self.ring.remove(shard_id)
            del self.shards[shard_id]
            self._journal("sync-remove", shard_id)
            print("repro router: synced removal of shard %s "
                  "(%d shards)" % (shard_id, len(self.shards)),
                  file=sys.stderr)

    def _membership_guard(self) -> None:
        """Membership writes go to the primary while it answers — two
        routers mutating one fleet would fork the membership history.
        A promoted standby (primary unreachable) accepts them."""
        if self.sync_from is not None and self.primary_reachable:
            raise RequestError(
                "this router is a standby syncing membership from "
                "%s:%d — apply membership changes there"
                % self.sync_from, "standby")

    # -- dispatch ------------------------------------------------------------

    async def _serve_line(self, line: bytes):
        start = time.perf_counter()
        self.stats.requests += 1
        self._inflight_requests += 1
        request_id = None
        try:
            try:
                request = decode_message(line)
            except ProtocolError as error:
                raise RequestError(str(error))
            request_id = request.get("id")
            op = request.get("op")
            local = self._LOCAL_OPS.get(op)
            if local is not None:
                self.stats.local += 1
                result = await local(self, request)
                response = ok_envelope(request_id, result)
            elif op in ("analyze", "check", "slice"):
                response = await self._forward_line(line, request)
            elif op == "batch":
                self.stats.routed += 1
                response = ok_envelope(
                    request_id, await self._op_batch(request))
            elif op == "invalidate":
                self.stats.routed += 1
                response = ok_envelope(
                    request_id, await self._broadcast_invalidate(request))
            else:
                raise RequestError(
                    "unknown op %r (router ops: %s)"
                    % (op, ", ".join(sorted(
                        set(self._LOCAL_OPS)
                        | {"analyze", "check", "slice", "batch",
                           "invalidate"}))))
            return response
        except RequestError as error:
            if error.code not in ("overloaded", "timeout"):
                self.stats.errors += 1
            return error_envelope(request_id, str(error), error.code)
        except Exception as error:
            self.stats.errors += 1
            return error_envelope(request_id,
                                  "%s: %s" % (type(error).__name__, error),
                                  "router-error")
        finally:
            self._inflight_requests -= 1
            self.stats.latencies.append(time.perf_counter() - start)

    # -- routing -------------------------------------------------------------

    def _routing_hash(self, request: dict) -> str:
        """``CacheKey.program_hash`` of the request's program — the
        ring key that keeps one program's workloads on one shard."""
        benchmark = request.get("benchmark")
        if benchmark is not None:
            name = str(benchmark)
            hit = self._benchmark_hashes.get(name)
            if hit is None:
                from ..benchprogs import benchmark as load_benchmark
                try:
                    bp = load_benchmark(name)
                except KeyError:
                    raise RequestError("unknown benchmark %r" % benchmark)
                hit = program_hash(bp.source)
                self._benchmark_hashes[name] = hit
            return hit
        source = request.get("source")
        if not isinstance(source, str):
            raise RequestError("request needs 'source' (a string) "
                               "or 'benchmark'")
        return program_hash(source)

    def _forward_timeout(self, request: dict) -> Optional[float]:
        """The shard enforces the request timeout; the router waits a
        little longer so the shard's own ``timeout`` error envelope
        gets through instead of being clipped mid-flight."""
        requested = request.get("timeout")
        try:
            requested = None if requested is None else float(requested)
        except (TypeError, ValueError):
            requested = None
        effective = self.request_timeout
        if requested is not None:
            effective = (requested if effective is None
                         else min(requested, effective))
        if effective is None:
            return None
        return effective * 1.1 + 5.0

    async def _forward_line(self, line: bytes, request: dict,
                            preference: Optional[Tuple[str, ...]] = None
                            ) -> bytes:
        """Route one pre-framed request to its shard, failing over to
        the next replica on transport errors (idempotent ops only).
        The shard's response bytes pass through verbatim.  ``_op_batch``
        passes the group's ``preference`` explicitly (its sub-requests
        carry no top-level program to hash)."""
        self.stats.routed += 1
        if self._draining:
            raise RequestError("router is draining", "shutting-down")
        if preference is None:
            preference = self.ring.preference(self._routing_hash(request))
        idempotent = request.get("op") in _IDEMPOTENT_OPS
        passes = (self.retries + 1) if idempotent else 1
        timeout = self._forward_timeout(request)
        delay = self.backoff
        last_error: Optional[Exception] = None
        attempts = 0
        for attempt in range(passes):
            if attempt:
                self.stats.retries += 1
                await asyncio.sleep(delay)
                delay = min(delay * 2, 1.0)
            for node in preference:
                # .get(): remove-shard may delete a node while this
                # request walks a preference list computed before it.
                shard = self.shards.get(node)
                if shard is None or not shard.available:
                    continue
                attempts += 1
                try:
                    response = await shard.request_raw(line, timeout)
                except asyncio.TimeoutError:
                    # The shard is still computing; replaying a
                    # possibly-heavy analysis elsewhere would double
                    # the work — surface the timeout instead.
                    raise RequestError(
                        "shard %s did not answer within %.1fs"
                        % (node, timeout), "timeout")
                except _FORWARD_ERRORS as error:
                    last_error = error
                    shard.note_failure(self.down_after)
                    if not idempotent:
                        raise RequestError(
                            "shard %s failed mid-request (%s); op %r "
                            "is not retried" % (node, error,
                                                request.get("op")),
                            "shard-unavailable")
                    continue
                shard.note_success()
                if node != preference[0]:
                    self.stats.failovers += 1
                if (self.replicate > 1 and len(preference) > 1
                        and request.get("op") == "analyze"):
                    self._maybe_replicate(node, preference, request,
                                          response)
                return response
        if attempts == 0:
            raise RequestError(
                "no shard available for this key (%d configured, all "
                "down or draining)" % len(self.shards), "no-shards")
        raise RequestError(
            "all replicas failed after %d attempt(s): %s"
            % (attempts, last_error), "shard-unavailable")

    # -- replicated writes ---------------------------------------------------

    #: Analyze-request fields that identify the workload — the seed
    #: request must carry them verbatim so the replica derives the
    #: same CacheKey as the home shard.
    _SPEC_FIELDS = ("source", "benchmark", "query", "input_types",
                    "config", "or_width", "baseline")

    def _maybe_replicate(self, home: str, preference: Tuple[str, ...],
                         request: dict, response: bytes) -> None:
        """After a successful analyze on ``home``: push the result into
        the next ``replicate - 1`` replicas' memory tiers, in the
        background.  Only *fresh* computations replicate — cache hits
        and coalesced riders were already seeded when first computed.
        The shard marks a fresh result in the line's leading bytes
        (``transport.frame_analyze``), so every other response — errors
        included — passes through without being decoded here.

        A fresh result always replicates, even when the same digest
        was pushed before: the shard recomputed it, so some copy is
        gone (``invalidate`` dropped them all, or a failover replica
        never held one), and the push puts the replicas back."""
        if fresh_digest(response) is None:
            return
        task = asyncio.ensure_future(
            self._replicate(home, preference, request, response))
        self._replication_tasks.add(task)
        task.add_done_callback(self._replication_tasks.discard)

    async def _replicate(self, home: str, preference: Tuple[str, ...],
                         request: dict, response: bytes) -> None:
        """Push one fresh result to the replicas.  The ``seed`` line is
        built around the payload bytes of the fresh analyze line
        (``transport.framed_payload``), which are neither decoded nor
        re-encoded here."""
        spec = {field: request[field] for field in self._SPEC_FIELDS
                if request.get(field) is not None}
        payload = (framed_payload(response) if request.get("payload", True)
                   else None)
        if payload is None:
            # Most clients ask payload=False, so the forwarded bytes
            # carry no tables; re-fetch from the home shard — a memory
            # hit there, it just computed the result.
            home_shard = self.shards.get(home)
            if home_shard is None:
                return
            try:
                line = await home_shard.request_raw(encode_message(
                    dict(spec, id=None, op="analyze", payload=True)),
                    timeout=30.0)
            except (asyncio.TimeoutError, *_FORWARD_ERRORS):
                self.stats.replication_failures += 1
                return
            payload = framed_payload(line)
            if payload is None:
                self.stats.replication_failures += 1
                return
        seed_line = splice_payload(dict(spec, id=None, op="seed"),
                                   payload) + b"\n"
        replicas = [node for node in preference if node != home]
        for node in replicas[:self.replicate - 1]:
            shard = self.shards.get(node)
            if shard is None or shard.status != "up":
                continue
            try:
                envelope = decode_message(
                    await shard.request_raw(seed_line, 30.0))
            except (asyncio.TimeoutError, ProtocolError,
                    *_FORWARD_ERRORS):
                self.stats.replication_failures += 1
                continue
            if envelope.get("ok"):
                self.stats.replications += 1
            else:
                self.stats.replication_failures += 1

    # -- fan-out ops ---------------------------------------------------------

    async def _op_batch(self, request: dict) -> dict:
        """Split a batch by owning shard, fan out the sub-batches
        concurrently, and reassemble results in job order."""
        raw_jobs = request.get("jobs")
        if raw_jobs is None and request.get("benchmarks") is not None:
            raw_jobs = [{"benchmark": name}
                        for name in request["benchmarks"]]
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise RequestError("'batch' needs a non-empty 'jobs' or "
                               "'benchmarks' list")
        groups: "OrderedDict[str, List[Tuple[int, dict]]]" = OrderedDict()
        preferences: Dict[str, Tuple[str, ...]] = {}
        for index, job in enumerate(raw_jobs):
            if not isinstance(job, dict):
                raise RequestError("batch jobs must be objects")
            preference = self.ring.preference(self._routing_hash(job))
            node = preference[0]
            groups.setdefault(node, []).append((index, job))
            # Failover order for the whole group: the preference list
            # of its first job (all members share the primary).
            preferences.setdefault(node, preference)
        common = {field: request[field]
                  for field in ("payload", "timeout")
                  if request.get(field) is not None}

        async def one_group(node: str,
                            members: List[Tuple[int, dict]]) -> list:
            sub_request = dict(common, id=None, op="batch",
                               jobs=[job for _, job in members])
            try:
                raw = await self._forward_line(
                    encode_message(sub_request), sub_request,
                    preference=preferences[node])
                response = decode_message(raw)
            except RequestError as error:
                return [(index, {
                    "name": str(job.get("benchmark") or job.get("name")
                                or "job %d" % index),
                    "ok": False, "error": str(error),
                    "code": error.code,
                }) for index, job in members]
            if not response.get("ok"):
                return [(index, {
                    "name": str(job.get("benchmark") or job.get("name")
                                or "job %d" % index),
                    "ok": False,
                    "error": response.get("error", "unknown error"),
                    "code": response.get("code"),
                }) for index, job in members]
            jobs = response["result"]["jobs"]
            return [(index, jobs[slot])
                    for slot, (index, _) in enumerate(members)]

        outcomes = await asyncio.gather(
            *(one_group(node, members)
              for node, members in groups.items()))
        slots: List[Optional[dict]] = [None] * len(raw_jobs)
        for group in outcomes:
            for index, job_result in group:
                slots[index] = job_result
        return {"jobs": slots, "shards": len(groups)}

    async def _fanout(self, message: dict,
                      timeout: Optional[float] = 30.0) -> Dict[str, dict]:
        """Send ``message`` to every non-down shard; map shard id to
        the decoded response envelope (or an error pseudo-envelope)."""

        async def one(shard: ShardState) -> Tuple[str, dict]:
            try:
                return shard.id, await shard.request(
                    dict(message, id=None), timeout)
            except (asyncio.TimeoutError, ProtocolError,
                    *_FORWARD_ERRORS) as error:
                shard.note_failure(self.down_after)
                return shard.id, {"ok": False, "error": str(error),
                                  "code": "shard-unavailable"}

        shards = [shard for shard in self.shards.values()
                  if shard.status != "down"]
        return dict(await asyncio.gather(*(one(s) for s in shards)))

    async def _broadcast_invalidate(self, request: dict) -> dict:
        message = {"op": "invalidate"}
        for field in ("source", "program_hash"):
            if request.get(field) is not None:
                message[field] = request[field]
        if len(message) == 1:
            raise RequestError("'invalidate' needs 'source' or "
                               "'program_hash'")
        responses = await self._fanout(message)
        total = 0
        prog_hash = None
        per_shard = {}
        for shard_id, response in responses.items():
            if response.get("ok"):
                result = response["result"]
                per_shard[shard_id] = result["invalidated"]
                total += result["invalidated"]
                prog_hash = result["program_hash"]
            else:
                per_shard[shard_id] = response.get("error")
        return {"program_hash": prog_hash, "invalidated": total,
                "shards": per_shard}

    # -- local ops -----------------------------------------------------------

    async def _op_ping(self, request: dict) -> dict:
        return {"pong": True, "router": True, "pid": os.getpid(),
                "draining": self._draining}

    async def _op_route(self, request: dict) -> dict:
        """Debug/testing: where would this workload go?"""
        key = self._routing_hash(request)
        preference = self.ring.preference(key)
        target = next((node for node in preference
                       if self.shards[node].available), None)
        return {"program_hash": key, "preference": list(preference),
                "target": target}

    async def _op_router_info(self, request: dict) -> dict:
        info = {
            "pid": os.getpid(),
            "uptime": round(time.time() - self.stats.started, 3),
            "draining": self._draining,
            "cache_dir": self.cache_dir,
            "vnodes": self.ring.vnodes,
            "retries": self.retries,
            "backoff": self.backoff,
            "health_interval": self.health_interval,
            "down_after": self.down_after,
            "replicate": self.replicate,
            "restart_backoff": self.restart_backoff,
            "breaker_deaths": self.breaker_deaths,
            "breaker_window": self.breaker_window,
            "requests": self.stats.requests,
            "routed": self.stats.routed,
            "local": self.stats.local,
            "failovers": self.stats.failovers,
            "forward_retries": self.stats.retries,
            "errors": self.stats.errors,
            "restarts": self.stats.restarts,
            "restart_failures": self.stats.restart_failures,
            "breaker_trips": self.stats.breaker_trips,
            "shards_added": self.stats.shards_added,
            "shards_removed": self.stats.shards_removed,
            "replications": self.stats.replications,
            "replication_failures": self.stats.replication_failures,
            "role": ("standby" if self.sync_from is not None
                     and self.primary_reachable else "primary"),
            "sync_from": (None if self.sync_from is None
                          else "%s:%d" % self.sync_from),
            "primary_reachable": (self.primary_reachable
                                  if self.sync_from is not None
                                  else None),
            "sync_pulls": self.stats.sync_pulls,
            "sync_failures": self.stats.sync_failures,
            "last_sync_at": self.last_sync_at,
            "journal": (None if self.journal is None else {
                "path": self.journal.path,
                "seq": self.journal.seq,
                "replayed": self.journal_replayed,
                "compactions": self.journal.compactions,
            }),
            "membership_log": list(self.membership_log),
            "faults": (None if self.faults is None
                       else self.faults.describe()),
            "ring": list(self.ring.nodes),
            "shards": {shard_id: shard.info()
                       for shard_id, shard in self.shards.items()},
            "latency": self.stats.latency_summary(),
        }
        if self.l2 is not None:
            loop = asyncio.get_running_loop()
            info["l2_entries"] = await loop.run_in_executor(
                None, len, self.l2)
        return info

    async def _op_stats(self, request: dict) -> dict:
        """Fleet-wide ``stats``: per-shard snapshots plus merged
        counters, one endpoint for the whole cluster."""
        responses = await self._fanout({"op": "stats"})
        shards: Dict[str, dict] = {}
        merged = {
            "shards_up": 0, "shards_down": 0, "shards_draining": 0,
            "requests": 0, "analyses_executed": 0, "coalesced": 0,
            "rejected": 0, "timeouts": 0, "errors": 0,
            "queue_depth": 0,
            "cache": {"hits": 0, "memory_hits": 0, "disk_hits": 0,
                      "misses": 0, "puts": 0, "evictions": 0,
                      "invalidations": 0, "hit_rate": None},
            "latency": {"count": 0, "mean": None, "p50_max": None,
                        "p95_max": None},
        }
        for shard in self.shards.values():
            bucket = ("shards_draining" if shard.status == "draining"
                      else "shards_down" if shard.status == "down"
                      else "shards_up")
            merged[bucket] += 1
        mean_weight = 0.0
        for shard_id, response in responses.items():
            if not response.get("ok"):
                shards[shard_id] = {"error": response.get("error"),
                                    "code": response.get("code")}
                continue
            stats = response["result"]
            shards[shard_id] = stats
            for field in ("requests", "analyses_executed", "coalesced",
                          "rejected", "timeouts", "errors",
                          "queue_depth"):
                merged[field] += stats.get(field, 0)
            for field in merged["cache"]:
                if field != "hit_rate":
                    merged["cache"][field] += \
                        stats.get("cache", {}).get(field, 0) or 0
            latency = stats.get("latency", {})
            count = latency.get("count") or 0
            if count:
                merged["latency"]["count"] += count
                if latency.get("mean") is not None:
                    mean_weight += latency["mean"] * count
                for src, dst in (("p50", "p50_max"), ("p95", "p95_max")):
                    value = latency.get(src)
                    if value is not None:
                        current = merged["latency"][dst]
                        merged["latency"][dst] = (
                            value if current is None
                            else max(current, value))
        lookups = merged["cache"]["hits"] + merged["cache"]["misses"]
        if lookups:
            merged["cache"]["hit_rate"] = round(
                merged["cache"]["hits"] / lookups, 4)
        if merged["latency"]["count"]:
            merged["latency"]["mean"] = round(
                mean_weight / merged["latency"]["count"], 6)
        return {
            "router": {
                "pid": os.getpid(),
                "uptime": round(time.time() - self.stats.started, 3),
                "draining": self._draining,
                "requests": self.stats.requests,
                "routed": self.stats.routed,
                "local": self.stats.local,
                "failovers": self.stats.failovers,
                "forward_retries": self.stats.retries,
                "errors": self.stats.errors,
                "restarts": self.stats.restarts,
                "restart_failures": self.stats.restart_failures,
                "breaker_trips": self.stats.breaker_trips,
                "shards_added": self.stats.shards_added,
                "shards_removed": self.stats.shards_removed,
                "replications": self.stats.replications,
                "replication_failures": self.stats.replication_failures,
                "sync_pulls": self.stats.sync_pulls,
                "sync_failures": self.stats.sync_failures,
                "latency": self.stats.latency_summary(),
            },
            "merged": merged,
            "shards": shards,
        }

    async def _op_cache_info(self, request: dict) -> dict:
        responses = await self._fanout({"op": "cache-info"})
        shards = {shard_id: (response["result"] if response.get("ok")
                             else {"error": response.get("error")})
                  for shard_id, response in responses.items()}
        # The shards share one disk store, so per-shard entry counts
        # overlap; the fleet-wide figure is the max, not the sum.
        entries = [info.get("entries", 0) for info in shards.values()
                   if "error" not in info]
        return {"shards": shards,
                "entries": max(entries) if entries else 0,
                "shared_cache_dir": self.cache_dir}

    async def _op_drain_shard(self, request: dict) -> dict:
        self._membership_guard()
        shard = self._shard_of(request)
        shard.status = "draining"
        if bool(request.get("shutdown", False)):
            deadline = time.monotonic() + 30.0
            while shard.inflight > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            try:
                await shard.request({"id": None, "op": "shutdown"},
                                    timeout=10.0)
            except (asyncio.TimeoutError, ProtocolError,
                    *_FORWARD_ERRORS):
                pass
        return {"shard": shard.id, "status": shard.status,
                "inflight": shard.inflight}

    async def _op_undrain_shard(self, request: dict) -> dict:
        self._membership_guard()
        shard = self._shard_of(request)
        if shard.status == "draining":
            shard.status = "up"
            shard.consecutive_failures = 0
        return {"shard": shard.id, "status": shard.status}

    async def _op_add_shard(self, request: dict) -> dict:
        """Join a running ``repro serve`` to the ring — after a health
        probe passes, so a typo'd address never lands in rotation.
        Consistent hashing moves only the joining shard's slice."""
        self._membership_guard()
        host = request.get("host")
        port = request.get("port")
        if not isinstance(host, str) or not isinstance(port, int):
            raise RequestError("'add-shard' needs 'host' (string) and "
                               "'port' (integer)")
        shard_id = str(request.get("shard") or "%s:%d" % (host, port))
        if shard_id in self.shards:
            raise RequestError("shard %s already in the ring" % shard_id)
        shard = ShardState(shard_id, host, port, self.pool_size)
        try:
            response = await shard.request({"id": None, "op": "ping"},
                                           timeout=10.0)
        except (asyncio.TimeoutError, ProtocolError,
                *_FORWARD_ERRORS) as error:
            raise RequestError(
                "health probe of %s:%d failed (%s) — shard not added"
                % (host, port, error), "shard-unavailable")
        if not response.get("ok"):
            raise RequestError(
                "health probe of %s:%d answered an error — shard not "
                "added" % (host, port), "shard-unavailable")
        self.shards[shard_id] = shard
        self.ring.add(shard_id)
        self.stats.shards_added += 1
        # host/port ride along so journal replay can rebuild the
        # ShardState on the next startup.
        self._journal("add-shard", shard_id, host=host, port=port)
        print("repro router: shard %s joined the ring (%d shards)"
              % (shard_id, len(self.shards)), file=sys.stderr)
        return {"shard": shard_id, "shards": len(self.shards),
                "ring": list(self.ring.nodes)}

    async def _op_remove_shard(self, request: dict) -> dict:
        """Drain a shard, then delete it from the ring.  With
        ``shutdown: true`` the shard process is also asked to exit
        (the default for shards this router spawned)."""
        self._membership_guard()
        shard = self._shard_of(request)
        live = [s for s in self.shards.values() if s.id != shard.id]
        if not live:
            raise RequestError("cannot remove the last shard")
        # Drain first: new requests route around a draining shard
        # (``available`` is False) while in-flight ones finish.
        shard.status = "draining"
        deadline = time.monotonic() + 30.0
        while shard.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        drained = shard.inflight == 0
        shutdown = request.get("shutdown")
        if shutdown is None:
            shutdown = shard.process is not None
        if shutdown:
            try:
                await shard.request({"id": None, "op": "shutdown"},
                                    timeout=10.0)
            except (asyncio.TimeoutError, ProtocolError,
                    *_FORWARD_ERRORS):
                pass
        shard.close_idle()
        self.ring.remove(shard.id)
        del self.shards[shard.id]
        self.stats.shards_removed += 1
        self._journal("remove-shard", shard.id, drained=drained,
                      shutdown=bool(shutdown))
        print("repro router: shard %s left the ring (%d shards)"
              % (shard.id, len(self.shards)), file=sys.stderr)
        return {"shard": shard.id, "drained": drained,
                "shards": len(self.shards),
                "ring": list(self.ring.nodes)}

    def _shard_of(self, request: dict) -> ShardState:
        shard_id = request.get("shard")
        shard = self.shards.get(str(shard_id))
        if shard is None:
            raise RequestError("unknown shard %r (configured: %s)"
                               % (shard_id,
                                  ", ".join(sorted(self.shards))))
        return shard

    async def _op_sync_membership(self, request: dict) -> dict:
        """The standby's poll target: this router's current membership
        view, cheap enough for a 1 Hz cadence.  Also answered *by* a
        standby — chained standbys and observability tools read it."""
        return {
            "seq": 0 if self.journal is None else self.journal.seq,
            "role": ("standby" if self.sync_from is not None
                     and self.primary_reachable else "primary"),
            "replicate": self.replicate,
            "draining": self._draining,
            "shards": [{"id": shard.id, "host": shard.host,
                        "port": shard.port, "status": shard.status,
                        "spawned": shard.process is not None}
                       for shard in self.shards.values()],
        }

    async def _op_shutdown(self, request: dict) -> dict:
        inflight = self._inflight_requests - 1  # minus this request
        self._draining = True
        loop = asyncio.get_running_loop()
        loop.call_soon(self.trigger_shutdown)
        return {"draining": inflight}

    _LOCAL_OPS = {
        "ping": _op_ping,
        "route": _op_route,
        "router-info": _op_router_info,
        "stats": _op_stats,
        "cache-info": _op_cache_info,
        "drain-shard": _op_drain_shard,
        "undrain-shard": _op_undrain_shard,
        "add-shard": _op_add_shard,
        "remove-shard": _op_remove_shard,
        "sync-membership": _op_sync_membership,
        "shutdown": _op_shutdown,
    }


# -- CLI ---------------------------------------------------------------------

def _fleet_address(entry, field: str) -> Tuple[str, int]:
    if isinstance(entry, str):
        return _parse_shard_address(entry)
    if isinstance(entry, dict) and isinstance(entry.get("host"), str):
        try:
            return entry["host"], int(entry["port"])
        except (KeyError, TypeError, ValueError):
            pass
    raise ValueError("fleet %r entry %r is neither 'HOST:PORT' nor "
                     "{\"host\": ..., \"port\": ...}" % (field, entry))


def load_fleet(path: str) -> dict:
    """Parse a ``fleet.json`` deployment spec.

    The spec names the whole deployment once — every router and every
    externally-started shard, plus the knobs they must agree on::

        {
          "routers":   ["10.0.0.1:7870", "10.0.0.2:7870"],
          "shards":    ["10.0.0.3:7871",
                        {"host": "10.0.0.4", "port": 7871}],
          "replicate": 2,
          "cache_dir": "/srv/repro-cache",
          "journal":   "/srv/repro-cache/membership.journal",
          "vnodes":    64
        }

    Returns the spec with ``routers`` and ``shards`` normalized to
    ``[(host, port), ...]``.  Routers are ordered: the first entry is
    the primary, the rest are standbys (``--sync-from``), and clients
    hand the whole list to ``ServeClient(endpoints=...)``.  Unknown
    fields pass through untouched so specs can carry site-local notes.
    """
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict):
        raise ValueError("fleet spec must be a JSON object, got %s"
                         % type(spec).__name__)
    fleet = dict(spec)
    for field in ("routers", "shards"):
        entries = spec.get(field) or []
        if not isinstance(entries, list):
            raise ValueError("fleet %r must be a list" % field)
        fleet[field] = [_fleet_address(entry, field)
                        for entry in entries]
    return fleet


def router_main(argv) -> int:
    """``repro router``: run the cluster front door until shutdown."""
    parser = argparse.ArgumentParser(
        prog="repro router",
        description="Consistent-hash router over repro serve shards: "
                    "each program's workloads stick to one shard (warm "
                    "caches), a shared --cache-dir is the cross-shard "
                    "L2, and failed shards fail over to the next "
                    "replica on the ring.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_ROUTER_PORT,
                        help="router TCP port (0 picks an ephemeral "
                             "one; default %d)" % DEFAULT_ROUTER_PORT)
    parser.add_argument("--shard", action="append", default=[],
                        metavar="HOST:PORT",
                        help="backend repro serve address (repeatable)")
    parser.add_argument("--spawn", type=int, default=0, metavar="N",
                        help="spawn N local repro serve shards on "
                             "ephemeral ports (owned by the router: "
                             "drained and stopped with it)")
    parser.add_argument("--cache-dir", default=None,
                        help="shared on-disk result cache directory — "
                             "the cross-shard L2 (forwarded to spawned "
                             "shards)")
    parser.add_argument("--vnodes", type=int, default=64,
                        help="virtual nodes per shard on the hash ring "
                             "(default 64)")
    parser.add_argument("--pool-size", type=int, default=4,
                        help="pooled connections (max in-flight "
                             "requests) per shard (default 4)")
    parser.add_argument("--retries", type=int, default=2,
                        help="extra failover passes over the replica "
                             "preference list for idempotent ops "
                             "(default 2)")
    parser.add_argument("--backoff", type=float, default=0.05,
                        help="initial backoff between failover passes, "
                             "doubling up to 1s (default 0.05)")
    parser.add_argument("--health-interval", type=float, default=1.0,
                        help="seconds between shard health probes "
                             "(default 1.0)")
    parser.add_argument("--down-after", type=int, default=2,
                        help="consecutive failures before a shard is "
                             "marked down (default 2)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-request timeout cap in seconds "
                             "(default 300; 0 disables)")
    parser.add_argument("--workers", type=int, default=0,
                        help="--workers forwarded to spawned shards")
    parser.add_argument("--max-memory-entries", type=int, default=256,
                        help="--max-memory-entries forwarded to "
                             "spawned shards")
    parser.add_argument("--replicate", type=int, default=1,
                        help="memory-tier copies of each fresh analyze "
                             "result (1 = home shard only; R > 1 seeds "
                             "the next R-1 ring replicas; default 1)")
    parser.add_argument("--restart-backoff", type=float, default=0.5,
                        help="initial delay before restarting a dead "
                             "spawned shard, doubling per death "
                             "(default 0.5)")
    parser.add_argument("--restart-backoff-max", type=float,
                        default=30.0,
                        help="backoff ceiling for shard restarts "
                             "(default 30)")
    parser.add_argument("--breaker-deaths", type=int, default=5,
                        help="deaths within --breaker-window that trip "
                             "the crash-loop breaker (default 5)")
    parser.add_argument("--breaker-window", type=float, default=30.0,
                        help="sliding window in seconds for the "
                             "crash-loop breaker (default 30)")
    parser.add_argument("--shard-log-dir", default=None, metavar="DIR",
                        help="directory for spawned-shard stderr logs "
                             "(default: <cache-dir>/shard-logs when "
                             "--cache-dir is set, else discarded)")
    parser.add_argument("--shard-log-max-bytes", type=int,
                        default=1048576, metavar="N",
                        help="rotate a spawned shard's stderr log to "
                             "<log>.1 when a (re)spawn finds it at or "
                             "past N bytes, keeping one generation "
                             "(default 1 MiB; 0 disables)")
    parser.add_argument("--journal", default=None, metavar="FILE",
                        help="durable membership journal (append-only "
                             "JSON lines) replayed on startup so "
                             "add-shard/remove-shard survive router "
                             "restarts; default <cache-dir>/"
                             "membership.journal when --cache-dir is "
                             "set ('-standby' suffixed under "
                             "--sync-from); 'none' disables")
    parser.add_argument("--sync-from", default=None, metavar="HOST:PORT",
                        help="run as a standby: mirror this primary "
                             "router's membership via its "
                             "sync-membership op, refusing membership "
                             "writes here until the primary has missed "
                             "--down-after consecutive sync polls")
    parser.add_argument("--fleet", default=None, metavar="FILE",
                        help="fleet.json deployment spec supplying "
                             "shards and defaults for replicate/"
                             "cache-dir/vnodes/journal (explicit flags "
                             "win); listed shards are attached with "
                             "skip-only supervision — never restarted "
                             "by this router")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="deterministic fault plan for the "
                             "*router's* listener: inline JSON or "
                             "@file (see repro.service.faults)")
    parser.add_argument("--shard-faults", metavar="SPEC", default=None,
                        help="fault plan forwarded to spawned shards "
                             "via their --faults flag")
    args = parser.parse_args(argv)

    if args.fleet:
        try:
            fleet = load_fleet(args.fleet)
        except (OSError, ValueError) as error:
            parser.error("--fleet: %s" % error)
        for fleet_host, fleet_port in fleet["shards"]:
            address = "%s:%d" % (fleet_host, fleet_port)
            if address not in args.shard:
                args.shard.append(address)
        # Fleet values are defaults; anything given explicitly on the
        # command line (i.e. differing from the parser default) wins.
        for field in ("replicate", "cache_dir", "vnodes", "journal",
                      "pool_size", "shard_log_dir"):
            value = fleet.get(field)
            if (value is not None
                    and getattr(args, field) == parser.get_default(field)):
                setattr(args, field, value)

    if args.sync_from:
        try:
            _parse_shard_address(args.sync_from)
        except ValueError as error:
            parser.error("--sync-from: %s" % error)

    journal_path = args.journal
    if journal_path is None and args.cache_dir:
        journal_path = os.path.join(
            args.cache_dir,
            "membership-standby.journal" if args.sync_from
            else "membership.journal")
    elif journal_path == "none":
        journal_path = None

    from .faults import FaultSpecError, parse_fault_spec
    faults = None
    if args.faults:
        try:
            faults = parse_fault_spec(args.faults)
        except FaultSpecError as error:
            parser.error("--faults: %s" % error)
    if args.shard_faults:
        try:
            parse_fault_spec(args.shard_faults)  # fail fast, here
        except FaultSpecError as error:
            parser.error("--shard-faults: %s" % error)

    shard_addresses: List[str] = list(args.shard)
    spawned = []
    if args.spawn:
        from .client import spawn_server
        log_dir = args.shard_log_dir
        if log_dir is None and args.cache_dir:
            log_dir = os.path.join(args.cache_dir, "shard-logs")
        if log_dir:
            os.makedirs(log_dir, exist_ok=True)
        shard_args = ["--timeout", str(args.timeout or 0),
                      "--workers", str(args.workers),
                      "--max-memory-entries",
                      str(args.max_memory_entries)]
        if args.cache_dir:
            shard_args += ["--cache-dir", args.cache_dir]
        if args.shard_faults:
            shard_args += ["--faults", args.shard_faults]
        for index in range(args.spawn):
            log_path = (os.path.join(log_dir, "shard-%d.log" % index)
                        if log_dir else None)
            process, shard_host, shard_port = spawn_server(
                *shard_args, stderr_path=log_path,
                log_max_bytes=args.shard_log_max_bytes)
            spawned.append((process, shard_host, shard_port, log_path))
            shard_addresses.append("%s:%d" % (shard_host, shard_port))
            print("repro router: spawned shard %d at %s:%d (pid %d%s)"
                  % (index, shard_host, shard_port, process.pid,
                     ", log %s" % log_path if log_path else ""),
                  file=sys.stderr)
    if not shard_addresses and not args.sync_from and not journal_path:
        parser.error("give at least one --shard HOST:PORT, --spawn N, "
                     "a --fleet spec with shards, a --journal to "
                     "replay, or --sync-from a primary")

    try:
        router = ClusterRouter(
            shard_addresses, host=args.host, port=args.port,
            cache_dir=args.cache_dir, vnodes=args.vnodes,
            pool_size=args.pool_size, retries=args.retries,
            backoff=args.backoff, health_interval=args.health_interval,
            down_after=args.down_after,
            request_timeout=(None if not args.timeout else args.timeout),
            replicate=args.replicate,
            restart_backoff=args.restart_backoff,
            restart_backoff_max=args.restart_backoff_max,
            breaker_deaths=args.breaker_deaths,
            breaker_window=args.breaker_window,
            faults=faults,
            journal_path=journal_path,
            sync_from=args.sync_from,
            shard_log_max_bytes=args.shard_log_max_bytes)
    except ValueError as error:
        for process, _, _, _ in spawned:
            process.terminate()
        parser.error(str(error))
    for process, shard_host, shard_port, log_path in spawned:
        shard = router.shards["%s:%d" % (shard_host, shard_port)]
        shard.process = process
        shard.log_path = log_path
        # The respawn recipe: the original argv with the ephemeral
        # port pinned, so a restarted shard comes back *on the same
        # address* and the ring never changes under supervision.
        shard.spawn_argv = (["serve", "--port", str(shard_port)]
                            + shard_args)

    async def run() -> None:
        await router.start()
        # The ready line is a stable interface: tests and the load
        # generator parse host/port out of it.
        print("repro router listening on %s:%d (pid %d, shards=%d)"
              % (router.host, router.port, os.getpid(),
                 len(router.shards)), flush=True)
        loop = asyncio.get_running_loop()
        try:
            import signal
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, router.trigger_shutdown)
        except (ImportError, NotImplementedError):
            pass
        await router.serve_until_shutdown()
        print("repro router: drained and stopped", file=sys.stderr)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        for process, _, _, _ in spawned:
            if process.poll() is None:
                process.terminate()
        # Restarted shards are not in ``spawned``; sweep the live
        # shard table too so nothing outlives the router.
        for shard in router.shards.values():
            if shard.process is not None and shard.process.poll() is None:
                shard.process.terminate()
    return 0


if __name__ == "__main__":
    sys.exit(router_main(sys.argv[1:]))
