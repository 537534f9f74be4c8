"""Long-lived analysis daemon: ``repro serve``.

Every one-shot entry point (CLI, ``repro batch``) pays the same cold
start on each invocation — imports, parsing, arena compilation,
opcache warm-up — and then throws the warmed state away.  The server
keeps it: one resident process owns the process-wide intern tables,
the operation caches, the arena symbol table, and a
:class:`~repro.service.cache.ResultCache`, and serves analyses over a
newline-delimited JSON protocol.

Protocol (one JSON object per line, over TCP)::

    -> {"id": 1, "op": "analyze", "benchmark": "QU"}
    <- {"fresh": "<key digest>", "id": 1, "ok": true,
        "result": {"fingerprint": "...", "key": "<key digest>",
        "cached": false, "coalesced": false, "seconds": 0.004,
        "payload": {...encode_result...}}}

    (``fresh`` leads only a response whose result this request
    computed — not a cache hit, not a coalesced rider — and clients
    ignore it; see ``transport.frame_analyze``.)

    -> {"op": "analyze", "source": "app([],L,L).\\n...",
        "query": ["app", 3], "input_types": ["list", "any", "any"]}
    -> {"op": "batch", "benchmarks": ["QU", "PL"]}
    -> {"op": "check", "benchmark": "CHK"}  # assertion verdicts for the
                              # program's own assert_* directives
    -> {"op": "slice", "source": "..."}     # verdicts + blame slices
    -> {"op": "stats"}        # cache hit rate, opcache/arena counters,
                              # queue depth, p50/p95 latency, heap
    -> {"op": "cache-info"}
    -> {"op": "invalidate", "source": "..."}   # or "program_hash"
    -> {"op": "seed", "benchmark": "QU", "payload": {...}}
                              # replication push into the memory tier
    -> {"op": "ping"}
    -> {"op": "shutdown"}     # graceful: drain, flush cache, exit

Errors come back as ``{"id": ..., "ok": false, "error": "...",
"code": "bad-request" | "overloaded" | "timeout" | "shutting-down" |
"analysis-error"}`` — the connection stays usable.

Service guarantees:

* **Coalescing** — concurrent requests for the same
  :class:`~repro.service.cache.CacheKey` share one underlying
  computation; every requester gets the same payload and only one
  analysis runs (``stats.coalesced`` counts the riders).
* **Backpressure** — at most ``max_pending`` analyses may be in
  flight; a request that would start one more is rejected immediately
  with ``code="overloaded"`` instead of queueing without bound.  Cache
  hits and coalesced riders are always served.
* **Timeouts** — a responder waits at most ``request_timeout`` seconds
  (``code="timeout"``); the underlying computation is left to finish
  and populate the cache, so a retry is a hit.
* **Graceful shutdown** — ``shutdown`` (or SIGINT/SIGTERM) stops
  accepting computations, drains the in-flight ones, flushes the
  result cache to disk, and only then exits.

Execution model: analyses run either on one dedicated worker thread in
the server process (``workers=0``, the default — warmest, since the
request path and the analysis share every intern table) or on a
persistent :class:`~repro.service.batch.WorkerPool` of single-threaded
worker processes (``workers>=1``).  Both satisfy the
single-analysis-thread-per-process model the unlocked memo tables
require (see :mod:`repro.typegraph.opcache`); the asyncio event loop
itself never executes an analysis.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from collections import OrderedDict, deque
from typing import Dict, Optional, Tuple, Union

from ..fixpoint.engine import AnalysisConfig
from ..prolog.program import Program, parse_program
from .batch import WorkerPool, _execute_spec, _settled
from .cache import CacheKey, ResultCache, make_key
from .serialize import (canonical_json, check_fingerprint, decode_config,
                        decode_input_types, encode_config,
                        encode_input_types, payload_fingerprint,
                        program_hash)
from .transport import (LINE_LIMIT as _LINE_LIMIT, LineServer,
                        ProtocolError, decode_message, error_envelope,
                        frame_analyze, ok_envelope)
from .wire import EncodedPayload

__all__ = ["AnalysisServer", "ServerStats", "RequestError",
           "DEFAULT_PORT", "serve_main"]

DEFAULT_PORT = 7871

#: Ring size of the latency sample buffer behind the p50/p95 figures.
_LATENCY_SAMPLES = 4096


class RequestError(Exception):
    """A request the server refuses; ``code`` travels to the client."""

    def __init__(self, message: str, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


class ServerStats:
    """Counters and a latency ring for the ``stats`` op."""

    __slots__ = ("started", "requests", "analyses_executed", "coalesced",
                 "rejected", "timeouts", "errors", "seeds", "latencies")

    def __init__(self) -> None:
        self.started = time.time()
        self.requests = 0
        self.analyses_executed = 0
        self.coalesced = 0
        self.rejected = 0
        self.timeouts = 0
        self.errors = 0
        self.seeds = 0
        self.latencies: "deque[float]" = deque(maxlen=_LATENCY_SAMPLES)

    def latency_summary(self) -> dict:
        samples = sorted(self.latencies)
        if not samples:
            return {"count": 0, "mean": None, "p50": None, "p95": None,
                    "max": None}
        count = len(samples)

        def pct(q: float) -> float:
            return samples[min(count - 1, int(q * count))]

        return {
            "count": count,
            "mean": round(sum(samples) / count, 6),
            "p50": round(pct(0.50), 6),
            "p95": round(pct(0.95), 6),
            "max": round(samples[-1], 6),
        }


def _heap_stats() -> dict:
    """The ``heap`` section of ``stats``: what the cyclic collector
    scans and has run, and how large the warm memo tables are."""
    from ..typegraph import arena, opcache
    return {
        "frozen": gc.get_freeze_count(),
        "collections": [gen["collections"] for gen in gc.get_stats()],
        "opcache": {name: table["size"]
                    for name, table in sorted(opcache.stats().items())},
        "native": (arena.NATIVE.memo_stats()
                   if arena.NATIVE is not None else None),
    }


class AnalysisServer:
    """The resident analyzer behind ``repro serve``.

    Usable embedded (tests build one inside an event loop) or through
    :func:`serve_main`.  All public coroutines must run on the loop
    that called :meth:`start`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache: Optional[ResultCache] = None,
                 workers: int = 0, max_pending: int = 64,
                 request_timeout: Optional[float] = 300.0,
                 faults=None) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.host = host
        self.port = port
        self.cache = cache if cache is not None else ResultCache()
        self.workers = workers
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        #: optional FaultPlan injected at the transport layer
        self.faults = faults
        self.stats = ServerStats()
        self._pool: Optional[WorkerPool] = None
        self._executor = None
        #: CacheKey digest -> future of the one in-flight computation.
        self._inflight: Dict[str, "asyncio.Future"] = {}
        self._pending = 0
        self._draining = False
        self._server: Optional[LineServer] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        #: digest -> fingerprint memo (payload hashing is not free).
        self._fingerprints: "OrderedDict[str, str]" = OrderedDict()
        #: request signature -> (spec, CacheKey) memo.  ``make_key``
        #: parses the program to compute its canonical hash — paying
        #: that per *request* (instead of per distinct workload) used
        #: to dominate the warm hit path by ~20x.
        self._specs: "OrderedDict[tuple, Tuple[dict, CacheKey]]" = \
            OrderedDict()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the actual
        port afterwards (pass ``port=0`` for an ephemeral one)."""
        if self.workers >= 1:
            self._pool = WorkerPool(self.workers)
            # Fork the workers *now*, while this is effectively a
            # single-threaded process: once requests flow, executor
            # threads may hold the cache/intern locks, and a fork
            # taken then could hand a child a forever-held lock.
            self._pool.prefork()
        else:
            from concurrent.futures import ThreadPoolExecutor
            # Exactly one analysis thread: the enforcement half of the
            # single-analysis-thread-per-process model.
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-analysis")
        self._shutdown_event = asyncio.Event()
        self._server = LineServer(self._serve_line, self.host,
                                  self.port, limit=_LINE_LIMIT,
                                  faults=self.faults)
        await self._server.start()
        self.port = self._server.port

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`trigger_shutdown`),
        then drain and close."""
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        await self.drain_and_close()

    def trigger_shutdown(self) -> None:
        """Request a graceful shutdown (signal handlers call this)."""
        self._draining = True
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def drain_and_close(self) -> int:
        """Stop accepting, wait for in-flight analyses, flush the
        result cache to disk, and release the workers.  Returns the
        number of cache records flushed."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        pending = [fut for fut in self._inflight.values()
                   if not fut.done()]
        if pending:
            await asyncio.wait(pending, timeout=self.request_timeout)
        flushed = self.cache.flush()
        # Hang up on remaining clients *before* wait_closed: their
        # handlers unblock on EOF, which is what wait_closed waits for
        # on Python >= 3.12.1.
        if self._server is not None:
            self._server.hang_up()
            await self._server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        return flushed

    # -- connection handling -------------------------------------------------

    async def _serve_line(self, line: bytes) -> Union[dict, bytes]:
        """:class:`LineServer` handler: one request line in, one
        response envelope (or already framed line) out."""
        return await self._dispatch(line)

    async def _dispatch(self, line: bytes) -> Union[dict, bytes]:
        request_id = None
        try:
            try:
                request = decode_message(line)
            except ProtocolError as error:
                raise RequestError(str(error))
            request_id = request.get("id")
            op = request.get("op")
            handler = self._OPS.get(op)
            if handler is None:
                raise RequestError("unknown op %r (expected one of %s)"
                                   % (op, ", ".join(sorted(self._OPS))))
            result = await handler(self, request)
            if isinstance(result, bytes):  # analyze frames its own line
                return result
            return ok_envelope(request_id, result)
        except RequestError as error:
            # Load shedding and slow analyses are the fleet working as
            # designed, not faults.
            if error.code not in ("overloaded", "timeout"):
                self.stats.errors += 1
            return error_envelope(request_id, str(error), error.code)
        except Exception as error:  # analysis/internal failure
            self.stats.errors += 1
            return error_envelope(request_id,
                                  "%s: %s" % (type(error).__name__, error),
                                  "analysis-error")

    # -- the analyze path ----------------------------------------------------

    @staticmethod
    def _spec_signature(request: dict) -> Optional[tuple]:
        """A hashable digest of every request field ``_spec_of`` reads,
        or None when the request is too malformed to sign (it then
        takes the slow path, which raises the proper error)."""
        try:
            raw_query = request.get("query")
            query = (None if raw_query is None
                     else (str(raw_query[0]), int(raw_query[1])))
            input_types = request.get("input_types")
            config = request.get("config")
            return (
                request.get("benchmark"), request.get("source"), query,
                None if input_types is None
                else canonical_json(input_types),
                None if config is None else canonical_json(config),
                request.get("or_width"),
                bool(request.get("baseline", False)),
                request.get("name"),
            )
        except (TypeError, ValueError, KeyError, IndexError):
            return None

    def _spec_of(self, request: dict
                 ) -> Tuple[dict, CacheKey, Optional[Program]]:
        """Validated ``_execute_spec`` form plus cache key, memoized,
        and the parsed program when this call had to parse it.

        Keying parses the program to canonically hash it — ~1ms even
        for small sources, which used to dominate the warm hit path.
        Repeat workloads (the entire point of a server) hit the memo
        instead, and get no program back: the memo keeps none.  A
        miss hands its program on so the analysis does not parse the
        source again.  Single-threaded: only the event loop calls
        this."""
        signature = self._spec_signature(request)
        if signature is not None:
            memo = self._specs
            hit = memo.get(signature)
            if hit is not None:
                memo.move_to_end(signature)
                return hit + (None,)
        spec, key, program = self._spec_of_uncached(request)
        if signature is not None:
            memo[signature] = (spec, key)
            if len(memo) > 4096:
                memo.popitem(last=False)
        return spec, key, program

    def _spec_of_uncached(self, request: dict
                          ) -> Tuple[dict, CacheKey, Program]:
        """Validate an analyze request into the ``_execute_spec`` form
        plus its cache key and parsed program."""
        if request.get("benchmark") is not None:
            from ..benchprogs import benchmark
            try:
                bp = benchmark(str(request["benchmark"]))
            except KeyError:
                raise RequestError("unknown benchmark %r"
                                   % request["benchmark"])
            name, source, query = bp.name, bp.source, bp.query
            input_types = bp.input_types
        else:
            source = request.get("source")
            if not isinstance(source, str):
                raise RequestError("request needs 'source' (a string) "
                                   "or 'benchmark'")
            raw_query = request.get("query")
            if (not isinstance(raw_query, (list, tuple))
                    or len(raw_query) != 2):
                raise RequestError("'query' must be [name, arity]")
            try:
                query = (str(raw_query[0]), int(raw_query[1]))
            except (TypeError, ValueError):
                raise RequestError("query arity must be an integer, "
                                   "got %r" % (raw_query[1],))
            name = request.get("name") or "%s/%d" % query
            try:
                input_types = decode_input_types(
                    request.get("input_types"))
            except (TypeError, ValueError, KeyError, IndexError):
                raise RequestError("malformed 'input_types'")
            if (input_types is not None
                    and len(input_types) != query[1]):
                raise RequestError(
                    "input_types lists %d type(s) but %s/%d takes %d "
                    "argument(s)" % (len(input_types), query[0],
                                     query[1], query[1]))
        if request.get("config") is not None:
            try:
                config: Optional[AnalysisConfig] = \
                    decode_config(request["config"])
            except (TypeError, ValueError, KeyError):
                raise RequestError("malformed 'config'")
        elif request.get("or_width") is not None:
            try:
                config = AnalysisConfig(max_or_width=request["or_width"])
            except ValueError as error:
                raise RequestError("'or_width': %s" % (error,))
        else:
            config = None
        baseline = bool(request.get("baseline", False))
        spec = {
            "name": name,
            "source": source,
            "query": list(query),
            "input_types": encode_input_types(input_types),
            "config": None if config is None else encode_config(config),
            "baseline": baseline,
        }
        program = parse_program(source)
        key = make_key(program, query, input_types, config, baseline)
        return spec, key, program

    def _check_spec_of(self, request: dict
                       ) -> Tuple[dict, CacheKey, Optional[Program]]:
        """The verification form of an analyze request: the program's
        own assertion directives are harvested and folded into the
        config (with ``keep_deps`` so blame slicing has its dependency
        graph), which re-keys the workload — cached verdicts are valid
        only for the exact assertion set they were computed against.
        Memoized next to the analyze specs under a distinguished
        signature."""
        signature = self._spec_signature(request)
        if signature is not None:
            signature = signature + ("check",)
            memo = self._specs
            hit = memo.get(signature)
            if hit is not None:
                memo.move_to_end(signature)
                return hit + (None,)
        spec, _, program = self._spec_of(request)
        if program is None:
            program = parse_program(spec["source"])
        from ..assertions import AssertionSyntaxError, harvest_assertions
        try:
            assertions = tuple(harvest_assertions(program))
        except AssertionSyntaxError as error:
            raise RequestError("bad assertion directive: %s" % error)
        base = (decode_config(spec["config"])
                if spec["config"] is not None else AnalysisConfig())
        config = base.replace(assertions=assertions, keep_deps=True)
        query = (spec["query"][0], int(spec["query"][1]))
        key = make_key(program, query,
                       decode_input_types(spec["input_types"]), config,
                       bool(spec["baseline"]))
        spec = dict(spec)
        spec["config"] = encode_config(config)
        spec["check"] = True
        if signature is not None:
            memo[signature] = (spec, key)
            if len(memo) > 4096:
                memo.popitem(last=False)
        return spec, key, program

    async def _check(self, request: dict, want_slices: bool) -> dict:
        """Shared body of the ``check`` and ``slice`` ops: one cached
        payload (the encoded table plus its ``check`` section) serves
        both; they differ only in whether the blame slices travel back
        to the client."""
        spec, key, program = self._check_spec_of(request)
        outcome, payload = await self._analyze(
            spec, key, self._timeout_of(request), program)
        check = payload.get("check") or {"verdicts": [], "slices": []}
        verdicts = check.get("verdicts", [])
        counts: Dict[str, int] = {}
        for verdict in verdicts:
            status = verdict.get("status", "?")
            counts[status] = counts.get(status, 0) + 1
        outcome["name"] = spec["name"]
        outcome["verdicts"] = verdicts
        outcome["counts"] = counts
        outcome["passed"] = counts.get("violated", 0) == 0
        outcome["check_fingerprint"] = check_fingerprint(check)
        if want_slices:
            outcome["slices"] = check.get("slices", [])
        if bool(request.get("payload", False)):
            outcome["payload"] = payload
        return outcome

    def _fingerprint(self, digest: str, payload: dict) -> str:
        memo = self._fingerprints
        fingerprint = memo.get(digest)
        if fingerprint is None:
            # a fresh result brings the fingerprint its executor took
            fingerprint = (payload.fingerprint
                           if isinstance(payload, EncodedPayload)
                           else payload_fingerprint(payload))
            memo[digest] = fingerprint
            if len(memo) > 4096:
                memo.popitem(last=False)
        return fingerprint

    async def _analyze(self, spec: dict, key: CacheKey,
                       timeout: Optional[float],
                       program: Optional[Program] = None
                       ) -> Tuple[dict, dict]:
        """Serve one workload from the cache, a computation already in
        flight, or a new one; returns the result fields and the
        payload separately, since each op ships the payload its own
        way.  ``program`` is the parsed source, when the caller has
        it, for a new computation to reuse."""
        start = time.perf_counter()
        self.stats.requests += 1
        digest = key.digest
        cached = True
        coalesced = False
        loop = asyncio.get_running_loop()
        # Memory probe inline (it is a lock + dict hit, cheaper than
        # an executor hop); only the disk fallback leaves the loop.
        # The inflight check below runs synchronously after any await,
        # so duplicates still coalesce; the only race left (a probe
        # going stale while its computation both finishes and leaves
        # the inflight map) costs one redundant — and identical —
        # analysis, never a wrong answer.
        payload = self.cache.get_memory(key)
        if payload is None:
            if self.cache.cache_dir is None:
                payload = self.cache.get(key)
            else:
                payload = await loop.run_in_executor(None,
                                                     self.cache.get, key)
        if payload is None:
            cached = False
            future = self._inflight.get(digest)
            if future is not None:
                coalesced = True
                self.stats.coalesced += 1
            else:
                if self._draining:
                    raise RequestError("server is draining",
                                       "shutting-down")
                if self._pending >= self.max_pending:
                    self.stats.rejected += 1
                    raise RequestError(
                        "queue full: %d analyses in flight "
                        "(max_pending=%d)" % (self._pending,
                                              self.max_pending),
                        "overloaded")
                future = loop.create_future()
                # A timed-out responder abandons the future; make sure
                # an eventual error on it is considered retrieved.
                future.add_done_callback(
                    lambda f: f.exception() if not f.cancelled()
                    else None)
                self._inflight[digest] = future
                self._pending += 1
                asyncio.ensure_future(self._run_spec(spec, key, future,
                                                     program))
            try:
                payload = await asyncio.wait_for(asyncio.shield(future),
                                                 timeout)
            except asyncio.TimeoutError:
                # The computation is left running: it will finish,
                # populate the cache, and resolve any later riders.
                self.stats.timeouts += 1
                raise RequestError(
                    "analysis timed out after %.1fs (it continues in "
                    "the background; retry to pick up the cached "
                    "result)" % timeout, "timeout")
        seconds = time.perf_counter() - start
        self.stats.latencies.append(seconds)
        result = {
            "fingerprint": self._fingerprint(digest, payload),
            "key": digest,
            "cached": cached,
            "coalesced": coalesced,
            "seconds": round(seconds, 6),
        }
        return result, payload

    async def _run_spec(self, spec: dict, key: CacheKey,
                        future: "asyncio.Future",
                        program: Optional[Program]) -> None:
        loop = asyncio.get_running_loop()
        try:
            if self._pool is not None:
                # pickling a Program costs more than the worker's parse
                _, payload, _ = await asyncio.wrap_future(
                    self._pool.submit_spec(spec))
            else:
                _, payload, _ = await loop.run_in_executor(
                    self._executor, _settled, _execute_spec, spec, program)
            # disk write off the event loop (ResultCache is locked)
            await loop.run_in_executor(None, self.cache.put, key,
                                       payload)
            self.stats.analyses_executed += 1
        except BaseException as error:
            if not future.done():
                future.set_exception(error)
            return
        finally:
            self._pending -= 1
            if self._inflight.get(key.digest) is future:
                del self._inflight[key.digest]
        if not future.done():
            future.set_result(payload)

    def _timeout_of(self, request: dict) -> Optional[float]:
        """Effective timeout: the server cap, lowered per request."""
        requested = request.get("timeout")
        if requested is None:
            return self.request_timeout
        requested = float(requested)
        if self.request_timeout is None:
            return requested
        return min(requested, self.request_timeout)

    # -- ops -----------------------------------------------------------------

    async def _op_analyze(self, request: dict) -> bytes:
        """Answered as a framed line: the payload travels as the bytes
        its cache entry keeps, and a fresh result is marked for the
        router's replicate gate (``transport.frame_analyze``)."""
        spec, key, program = self._spec_of(request)
        result, payload = await self._analyze(
            spec, key, self._timeout_of(request), program)
        digest = key.digest
        fresh = not (result["cached"] or result["coalesced"])
        return frame_analyze(
            request.get("id"), result, fresh=digest if fresh else None,
            payload=(self.cache.payload_bytes(digest, payload)
                     if request.get("payload", True) else None))

    async def _op_check(self, request: dict) -> dict:
        """Assertion verdicts for the workload's own ``assert_*``
        directives; the analysis runs (or is served cached) with the
        assertions folded into its config."""
        return await self._check(request, want_slices=False)

    async def _op_slice(self, request: dict) -> dict:
        """Like ``check``, plus the blame slices for every violated
        assertion — the same cached payload serves both ops."""
        return await self._check(request, want_slices=True)

    async def _op_batch(self, request: dict) -> dict:
        """Many analyze requests in one round trip, answered when all
        are done; duplicates coalesce exactly like separate clients."""
        raw_jobs = request.get("jobs")
        if raw_jobs is None and request.get("benchmarks") is not None:
            raw_jobs = [{"benchmark": name}
                        for name in request["benchmarks"]]
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise RequestError("'batch' needs a non-empty 'jobs' or "
                               "'benchmarks' list")
        want_payload = bool(request.get("payload", False))
        timeout = self._timeout_of(request)
        prepared = [self._spec_of(job) for job in raw_jobs]

        async def one(spec: dict, key: CacheKey,
                      program: Optional[Program]) -> dict:
            try:
                result, payload = await self._analyze(spec, key, timeout,
                                                      program)
            except RequestError as error:
                return {"name": spec["name"], "ok": False,
                        "error": str(error), "code": error.code}
            if want_payload:
                result["payload"] = payload
            result["name"] = spec["name"]
            result["ok"] = True
            return result

        jobs = await asyncio.gather(*(one(*job) for job in prepared))
        return {"jobs": list(jobs)}

    async def _op_seed(self, request: dict) -> dict:
        """Replication push: store an already-encoded payload under
        this workload's key in the *memory* tier.  Cheap by design —
        no analysis, no disk write — so a home shard's fresh result
        can be fanned out to its replicas' warm memory (the router
        does this when started with ``--replicate R``, for every fresh
        result).  The request carries the analyze spec (``source``/
        ``benchmark`` + friends); re-deriving the key here proves the
        pushed payload matches the workload."""
        payload = request.get("payload")
        if not isinstance(payload, dict):
            raise RequestError("'seed' needs a 'payload' object")
        spec, key, _ = self._spec_of(request)
        self.cache.seed(key, payload)
        self.stats.seeds += 1
        return {"seeded": True, "key": key.digest, "name": spec["name"]}

    async def _op_stats(self, request: dict) -> dict:
        from ..typegraph import arena, opcache
        cache_stats = self.cache.stats
        hits = cache_stats.hits
        lookups = hits + cache_stats.misses
        opcache_hits, opcache_misses = opcache.snapshot()
        loop = asyncio.get_running_loop()
        entries = await loop.run_in_executor(None, len, self.cache)
        return {
            "pid": os.getpid(),
            "uptime": round(time.time() - self.stats.started, 3),
            "draining": self._draining,
            "workers": self.workers,
            "queue_depth": self._pending,
            "max_pending": self.max_pending,
            "requests": self.stats.requests,
            "analyses_executed": self.stats.analyses_executed,
            "coalesced": self.stats.coalesced,
            "rejected": self.stats.rejected,
            "timeouts": self.stats.timeouts,
            "errors": self.stats.errors,
            "seeds": self.stats.seeds,
            "faults": (None if self.faults is None
                       else self.faults.describe()),
            "cache": {
                "entries": entries,
                "dir": self.cache.cache_dir,
                "hits": hits,
                "memory_hits": cache_stats.memory_hits,
                "disk_hits": cache_stats.disk_hits,
                "misses": cache_stats.misses,
                "puts": cache_stats.puts,
                "seeds": cache_stats.seeds,
                "evictions": cache_stats.evictions,
                "invalidations": cache_stats.invalidations,
                "hit_rate": (round(hits / lookups, 4) if lookups
                             else None),
            },
            "opcache": {"enabled": opcache.enabled(),
                        "hits": opcache_hits,
                        "misses": opcache_misses},
            "arena": arena.stats(),
            "heap": _heap_stats(),
            "latency": self.stats.latency_summary(),
        }

    async def _op_cache_info(self, request: dict) -> dict:
        stats = await self._op_stats(request)
        return stats["cache"]

    async def _op_invalidate(self, request: dict) -> dict:
        if request.get("program_hash") is not None:
            prog_hash = str(request["program_hash"])
        elif request.get("source") is not None:
            prog_hash = program_hash(str(request["source"]))
        else:
            raise RequestError("'invalidate' needs 'source' or "
                               "'program_hash'")
        loop = asyncio.get_running_loop()
        invalidated = await loop.run_in_executor(
            None, self.cache.invalidate_program, prog_hash)
        return {"program_hash": prog_hash, "invalidated": invalidated}

    async def _op_ping(self, request: dict) -> dict:
        return {"pong": True, "pid": os.getpid(),
                "draining": self._draining}

    async def _op_shutdown(self, request: dict) -> dict:
        draining = self._pending
        self._draining = True
        loop = asyncio.get_running_loop()
        # Let the response flush before the listener goes away.
        loop.call_soon(self.trigger_shutdown)
        return {"draining": draining}

    _OPS = {
        "analyze": _op_analyze,
        "check": _op_check,
        "slice": _op_slice,
        "batch": _op_batch,
        "seed": _op_seed,
        "stats": _op_stats,
        "cache-info": _op_cache_info,
        "invalidate": _op_invalidate,
        "ping": _op_ping,
        "shutdown": _op_shutdown,
    }


# -- warm-up -----------------------------------------------------------------

async def _warm(server: AnalysisServer, names) -> None:
    """Pre-analyze benchmarks so the first real request runs warm."""
    from ..benchprogs import benchmark_names
    if [name.lower() for name in names] == ["all"]:
        names = benchmark_names()
    for name in names:
        spec, key, program = server._spec_of({"benchmark": name})
        await server._analyze(spec, key, server.request_timeout, program)
        print("warmed %s" % name, file=sys.stderr)


# -- CLI ---------------------------------------------------------------------

def serve_main(argv) -> int:
    """``repro serve``: run the daemon until shutdown."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-lived analysis server speaking "
                    "newline-delimited JSON; keeps intern tables, "
                    "arenas, the opcache, and the result cache warm "
                    "across requests.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="TCP port (0 picks an ephemeral one; the "
                             "chosen port is printed on the ready "
                             "line; default %d)" % DEFAULT_PORT)
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk result cache directory "
                             "(default: in-memory only)")
    parser.add_argument("--workers", type=int, default=0,
                        help="analysis worker processes; 0 (default) "
                             "runs analyses on one dedicated thread "
                             "in this process")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="in-flight analysis bound before "
                             "'overloaded' rejections (default 64)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-request analysis timeout in seconds "
                             "(default 300; 0 disables)")
    parser.add_argument("--max-memory-entries", type=int, default=256,
                        help="in-memory result cache size (default 256)")
    parser.add_argument("--warm", metavar="NAMES", default=None,
                        help="comma-separated benchmarks (or 'all') to "
                             "pre-analyze before accepting traffic")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="deterministic fault-injection plan: "
                             "inline JSON or @file (see "
                             "repro.service.faults; default: the "
                             "REPRO_FAULTS environment variable)")
    args = parser.parse_args(argv)

    from .faults import FaultSpecError, faults_from_env, parse_fault_spec
    try:
        faults = (parse_fault_spec(args.faults) if args.faults
                  else faults_from_env())
    except FaultSpecError as error:
        parser.error("--faults: %s" % error)
    if faults is not None:
        print("repro serve: fault injection ACTIVE: %s"
              % json.dumps(faults.to_obj()), file=sys.stderr)

    cache = ResultCache(args.cache_dir,
                        max_memory_entries=args.max_memory_entries)
    server = AnalysisServer(
        host=args.host, port=args.port, cache=cache,
        workers=args.workers, max_pending=args.max_pending,
        request_timeout=(None if not args.timeout else args.timeout),
        faults=faults)

    async def run() -> None:
        await server.start()
        if args.warm:
            await _warm(server, [n.strip().upper()
                                 for n in args.warm.split(",")])
        # The ready line is a stable interface: tests and the load
        # generator parse host/port out of it.
        print("repro serve listening on %s:%d (pid %d, workers=%d)"
              % (server.host, server.port, os.getpid(), args.workers),
              flush=True)
        loop = asyncio.get_running_loop()
        try:
            import signal
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, server.trigger_shutdown)
        except (ImportError, NotImplementedError):  # non-POSIX loops
            pass
        await server.serve_until_shutdown()
        print("repro serve: drained and stopped", file=sys.stderr)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(serve_main(sys.argv[1:]))
