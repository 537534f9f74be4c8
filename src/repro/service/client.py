"""Blocking client for the ``repro serve`` daemon and ``repro router``.

One :class:`ServeClient` owns one TCP connection and issues one
request at a time (the protocol is strictly request/response per
connection).  It is deliberately *not* thread-safe: concurrency is
expressed by giving each thread its own client, which is exactly how
the load generator and the coalescing tests drive the server.

The wire protocol lives in :mod:`repro.service.transport`; this module
adds the operation surface (``analyze``/``batch``/``stats``/...) and
process helpers:

* :func:`spawn_server` — launch ``repro serve`` as a subprocess on an
  ephemeral port and parse the ready line (tests, benchmarks).
* :func:`wait_for_server` — poll until the daemon answers ``ping``.

Connecting retries with backoff by default (``connect_retries``), so a
client racing a just-spawned server rides out the window where the
socket is not up yet instead of dying on a bare
``ConnectionRefusedError``; when the server really is absent the
failure is a :class:`ServeError` (``code="connection"``) whose message
says what to check.

Against a redundant front door (N ``repro router`` processes sharing
one fleet), construct the client with ``endpoints=[(host, port), ...]``
instead of a single address: connects walk the list until one router
answers, and a mid-request transport failure on an idempotent op fails
over to the next endpoint automatically.  :func:`fleet_endpoints`
reads that list straight out of a ``fleet.json`` spec.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple, Union

from ..fixpoint.engine import AnalysisConfig
from ..prolog.program import PredId
from ..typegraph.grammar import Grammar
from .serialize import encode_config, encode_input_types
from .transport import BlockingLineConnection, ConnectError, ProtocolError

DEFAULT_PORT = 7871  # mirrors server.DEFAULT_PORT without the import

__all__ = ["ServeClient", "ServeError", "spawn_server",
           "spawn_router", "wait_for_server", "fleet_endpoints"]


class ServeError(RuntimeError):
    """An error response from the server; ``code`` mirrors the
    protocol (``overloaded``, ``timeout``, ``bad-request``, ...)."""

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code


class ServeClient:
    """Blocking newline-delimited-JSON client (context manager).

    ``ServeClient(host, port)`` targets one server; ``ServeClient(
    endpoints=[(host, port), ...])`` targets a redundant router fleet
    — connects latch onto the first endpoint that answers, and
    idempotent ops that die mid-request fail over to the next one.
    """

    #: Ops safe to replay against another endpoint after a transport
    #: failure mid-request (reads, or pure functions of the cache key
    #: — mirrors the router's own failover set).
    _FAILOVER_OPS = frozenset({"analyze", "check", "slice", "batch",
                               "ping", "stats", "cache-info", "route",
                               "router-info", "sync-membership"})

    def __init__(self, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT,
                 timeout: Optional[float] = 120.0,
                 connect_retries: int = 3,
                 connect_backoff: float = 0.05,
                 endpoints: Optional[Sequence[Tuple[str, int]]]
                 = None) -> None:
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        if endpoints is not None:
            self._conn = BlockingLineConnection(
                timeout=timeout, endpoints=list(endpoints))
        else:
            self._conn = BlockingLineConnection(host, port, timeout)
        self._next_id = 0

    @property
    def host(self) -> str:
        """The currently-targeted endpoint's host."""
        return self._conn.host

    @property
    def port(self) -> int:
        return self._conn.port

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        return list(self._conn.endpoints)

    # -- plumbing ------------------------------------------------------------

    def connect(self, retries: Optional[int] = None,
                backoff: Optional[float] = None) -> "ServeClient":
        """Establish the connection now (idempotent), retrying with
        exponential backoff while the server socket comes up.  Raises
        :class:`ServeError` (``code="connection"``) with a clear
        message when it never does."""
        try:
            self._conn.connect(
                retries=(self.connect_retries if retries is None
                         else retries),
                backoff=(self.connect_backoff if backoff is None
                         else backoff))
        except ConnectError as error:
            raise ServeError(str(error), "connection") from None
        return self

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, op: str, **fields) -> dict:
        """One round trip; returns the ``result`` object or raises
        :class:`ServeError`.

        With several endpoints configured, an idempotent op whose
        transport dies mid-request is replayed against the next
        endpoint (once per endpoint) before the failure surfaces —
        the client-side half of router redundancy."""
        self._next_id += 1
        request = {"id": self._next_id, "op": op}
        request.update((k, v) for k, v in fields.items()
                       if v is not None)
        attempts = (len(self._conn.endpoints)
                    if op in self._FAILOVER_OPS else 1)
        for attempt in range(attempts):
            if not self._conn.connected:
                self.connect()
            try:
                response = self._conn.round_trip(request)
            except ConnectError as error:
                # The connection is already closed; prefer another
                # endpoint on the next connect and replay if allowed.
                self._conn.rotate()
                if attempt + 1 < attempts:
                    continue
                raise ServeError(str(error), "connection") from None
            except ProtocolError as error:
                raise ServeError("garbage response: %s" % error,
                                 "protocol") from None
            if not response.get("ok"):
                raise ServeError(response.get("error", "unknown error"),
                                 response.get("code"))
            return response["result"]
        raise AssertionError("unreachable")

    # -- operations ----------------------------------------------------------

    def analyze(self, source: Optional[str] = None,
                query: Optional[PredId] = None,
                benchmark: Optional[str] = None,
                input_types: Optional[Sequence[Union[str, Grammar]]]
                = None,
                config: Optional[AnalysisConfig] = None,
                or_width: Optional[int] = None,
                baseline: bool = False,
                payload: bool = True,
                timeout: Optional[float] = None) -> dict:
        """Analyze a source+query or a built-in benchmark.  Returns
        the server's result dict (``fingerprint``, ``cached``,
        ``coalesced``, ``seconds``, and ``payload`` unless
        ``payload=False``)."""
        return self.request(
            "analyze",
            source=source,
            query=None if query is None else list(query),
            benchmark=benchmark,
            input_types=encode_input_types(input_types),
            config=None if config is None else encode_config(config),
            or_width=or_width,
            baseline=baseline or None,
            payload=payload if not payload else None,
            timeout=timeout)

    def check(self, source: Optional[str] = None,
              query: Optional[PredId] = None,
              benchmark: Optional[str] = None,
              input_types: Optional[Sequence[Union[str, Grammar]]]
              = None,
              config: Optional[AnalysisConfig] = None,
              or_width: Optional[int] = None,
              baseline: bool = False,
              timeout: Optional[float] = None) -> dict:
        """Check the workload's own ``assert_*`` directives against
        the analysis.  Returns ``verdicts``, ``counts``, ``passed``,
        and a ``check_fingerprint`` stable across kernel tiers and
        cache state."""
        return self.request(
            "check",
            source=source,
            query=None if query is None else list(query),
            benchmark=benchmark,
            input_types=encode_input_types(input_types),
            config=None if config is None else encode_config(config),
            or_width=or_width,
            baseline=baseline or None,
            timeout=timeout)

    def slice(self, source: Optional[str] = None,
              query: Optional[PredId] = None,
              benchmark: Optional[str] = None,
              input_types: Optional[Sequence[Union[str, Grammar]]]
              = None,
              config: Optional[AnalysisConfig] = None,
              or_width: Optional[int] = None,
              baseline: bool = False,
              timeout: Optional[float] = None) -> dict:
        """Like :meth:`check`, plus the ``slices`` list — one
        source-anchored blame slice per offending entry of every
        violated assertion."""
        return self.request(
            "slice",
            source=source,
            query=None if query is None else list(query),
            benchmark=benchmark,
            input_types=encode_input_types(input_types),
            config=None if config is None else encode_config(config),
            or_width=or_width,
            baseline=baseline or None,
            timeout=timeout)

    def batch(self, benchmarks: Optional[Sequence[str]] = None,
              jobs: Optional[Sequence[dict]] = None,
              payload: bool = False,
              timeout: Optional[float] = None) -> dict:
        return self.request("batch",
                            benchmarks=(None if benchmarks is None
                                        else list(benchmarks)),
                            jobs=None if jobs is None else list(jobs),
                            payload=payload or None,
                            timeout=timeout)

    def stats(self) -> dict:
        return self.request("stats")

    def cache_info(self) -> dict:
        return self.request("cache-info")

    def invalidate(self, source: Optional[str] = None,
                   program_hash: Optional[str] = None) -> dict:
        return self.request("invalidate", source=source,
                            program_hash=program_hash)

    def ping(self) -> dict:
        return self.request("ping")

    def shutdown(self) -> dict:
        return self.request("shutdown")

    # -- router operations ---------------------------------------------------

    def router_info(self) -> dict:
        """Topology/health of a ``repro router`` front door."""
        return self.request("router-info")

    def drain_shard(self, shard: str) -> dict:
        return self.request("drain-shard", shard=shard)

    def undrain_shard(self, shard: str) -> dict:
        return self.request("undrain-shard", shard=shard)

    def add_shard(self, host: str, port: int,
                  shard: Optional[str] = None) -> dict:
        """Join a running shard to the router's ring (after a health
        probe passes); only its consistent-hash slice moves."""
        return self.request("add-shard", host=host, port=port,
                            shard=shard)

    def remove_shard(self, shard: str) -> dict:
        """Drain a shard, then delete it from the ring."""
        return self.request("remove-shard", shard=shard)

    def sync_membership(self) -> dict:
        """The router's current ring membership + journal sequence —
        what a standby router polls to keep its ring consistent."""
        return self.request("sync-membership")


def fleet_endpoints(path: Union[str, "os.PathLike"]
                    ) -> List[Tuple[str, int]]:
    """The router endpoints of a ``fleet.json`` spec, as the
    ``ServeClient(endpoints=...)`` list — one call turns a fleet file
    into a failover-aware client."""
    from .cluster import load_fleet
    spec = load_fleet(path)
    routers = spec.get("routers") or []
    if not routers:
        raise ValueError("fleet spec %s lists no routers" % path)
    return [(host, port) for host, port in routers]


# -- process helpers ---------------------------------------------------------

def wait_for_server(host: str, port: int, timeout: float = 30.0,
                    interval: float = 0.05) -> None:
    """Block until ``ping`` answers (or raise ``TimeoutError``)."""
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(host, port, timeout=interval * 10,
                             connect_retries=0) as client:
                client.ping()
            return
        except (OSError, ServeError, ValueError) as error:
            last_error = error
            time.sleep(interval)
    raise TimeoutError("no repro serve at %s:%d after %.1fs (%s)"
                       % (host, port, timeout, last_error))


def _repro_env() -> dict:
    """Environment for a spawned repro subprocess: the child must
    import the same repro this process runs (uninstalled checkouts
    rely on PYTHONPATH=src)."""
    import os
    package_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
    return env


#: Rotate a spawned daemon's stderr log once it reaches this size
#: (the previous generation is kept as ``<path>.1``).  A crash-looping
#: shard restarted under supervision appends to one log forever; the
#: cap bounds that at two generations instead of a full disk.
LOG_ROTATE_BYTES = 1 << 20


def _rotate_log(path: str, max_bytes: int) -> None:
    """Rotate ``path`` to ``path.1`` when it is ``max_bytes`` or
    bigger (``max_bytes=0`` disables rotation).  Called before each
    append-mode open, so the cap holds across arbitrarily many
    restarts of the same shard."""
    if not max_bytes:
        return
    try:
        if os.path.getsize(path) < max_bytes:
            return
        os.replace(path, path + ".1")
    except OSError:
        pass


def _spawn_ready(argv: Sequence[str], ready_timeout: float,
                 what: str, stderr_path: Optional[str] = None,
                 log_max_bytes: Optional[int] = None
                 ) -> Tuple[subprocess.Popen, str, int]:
    """Launch a repro daemon subprocess and parse its ready line
    (``... listening on HOST:PORT ...``).

    ``stderr_path`` captures the child's stderr to a log file (append
    mode, so restarts of the same shard accumulate in one place) —
    without it crash evidence vanishes into ``DEVNULL``.  The log is
    rotated at ``log_max_bytes`` (default :data:`LOG_ROTATE_BYTES`;
    0 disables).
    """
    if stderr_path is None:
        stderr = subprocess.DEVNULL
    else:
        _rotate_log(stderr_path, LOG_ROTATE_BYTES
                    if log_max_bytes is None else log_max_bytes)
        stderr = open(stderr_path, "ab", buffering=0)
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro"] + list(argv),
            stdout=subprocess.PIPE, stderr=stderr, text=True,
            env=_repro_env())
    finally:
        if stderr_path is not None:
            stderr.close()  # the child holds its own descriptor now
    # Read the pipe on a thread so ready_timeout holds even against a
    # child that is alive but silent (readline alone would block
    # unboundedly and the deadline would never be checked).
    import queue
    import threading
    lines: "queue.Queue[str]" = queue.Queue()

    def pump() -> None:
        for text in process.stdout:
            lines.put(text)
        lines.put("")  # EOF marker

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + ready_timeout
    line = ""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            line = lines.get(timeout=min(remaining, 0.5))
        except queue.Empty:
            continue
        if "listening on" in line:
            address = line.split("listening on", 1)[1].split()[0]
            host, _, port_text = address.rpartition(":")
            return process, host, int(port_text)
        if not line:  # EOF: the child exited or closed stdout
            break
    process.terminate()
    raise RuntimeError("%s did not come up (last line: %r)"
                       % (what, line))


def spawn_server(*extra_args: str,
                 ready_timeout: float = 60.0,
                 stderr_path: Optional[str] = None,
                 log_max_bytes: Optional[int] = None
                 ) -> Tuple[subprocess.Popen, str, int]:
    """Launch ``repro serve --port 0 [extra_args]`` as a subprocess
    and return ``(process, host, port)`` parsed from the ready line.
    The caller owns the process (send ``shutdown`` or terminate it).
    ``stderr_path`` appends the child's stderr to a log file (rotated
    at ``log_max_bytes``)."""
    return _spawn_ready(["serve", "--port", "0"] + list(extra_args),
                        ready_timeout, "repro serve",
                        stderr_path=stderr_path,
                        log_max_bytes=log_max_bytes)


def spawn_router(*extra_args: str,
                 ready_timeout: float = 120.0,
                 stderr_path: Optional[str] = None
                 ) -> Tuple[subprocess.Popen, str, int]:
    """Launch ``repro router --port 0 [extra_args]`` (for example with
    ``--spawn N`` for local shards) and return ``(process, host,
    port)`` parsed from its ready line.  ``stderr_path`` captures the
    router's stderr (membership/supervision prints) to a log file."""
    return _spawn_ready(["router", "--port", "0"] + list(extra_args),
                        ready_timeout, "repro router",
                        stderr_path=stderr_path)
