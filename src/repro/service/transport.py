"""Reusable newline-delimited JSON transport for the service tier.

Every process in the serving stack — the ``repro serve`` shard daemon,
the ``repro router`` front door, the blocking :class:`ServeClient`,
and the load generator — speaks the same wire protocol: one JSON
object per ``\\n``-terminated line over TCP, strictly request/response
per connection.  This module owns that protocol once, extracted from
``service/server.py``/``client.py`` so the router did not have to grow
a third copy:

* **framing** — :func:`encode_message` / :func:`decode_message` and
  the shared :data:`LINE_LIMIT`;
* **envelopes** — :func:`ok_envelope` / :func:`error_envelope`, the
  ``{"id", "ok", "result" | "error"+"code"}`` response shape, and the
  analyze response framed from already-encoded payload bytes
  (:func:`frame_analyze`), whose optional leading ``fresh`` field a
  router reads without parsing the line (:func:`fresh_digest`), as it
  reads the payload bytes (:func:`framed_payload`);
* **connection lifecycle** — :class:`LineServer` (asyncio accept loop,
  per-connection read/dispatch/write cycle, oversized-line recovery,
  connection tracking for graceful drain), :class:`AsyncLineConnection`
  (one pooled upstream connection of the router), and
  :class:`BlockingLineConnection` (the synchronous client substrate,
  with retry-with-backoff connection establishment).

Latency note: asyncio enables ``TCP_NODELAY`` on every TCP transport
it creates; :class:`BlockingLineConnection` sets it explicitly so the
blocking side never trades request/response latency against Nagle.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from typing import Any, Awaitable, Callable, Optional, Union

from .._collector import collector_paused

__all__ = ["LINE_LIMIT", "ProtocolError", "ConnectError",
           "encode_message", "decode_message",
           "ok_envelope", "error_envelope", "splice_payload", "frame_ok",
           "frame_analyze", "framed_payload", "fresh_digest",
           "LineServer", "AsyncLineConnection", "BlockingLineConnection"]

#: Maximum request/response line length (program sources travel
#: inline, so this is deliberately generous: 16 MiB).
LINE_LIMIT = 1 << 24


class ProtocolError(Exception):
    """A line that is not a valid protocol message."""


class ConnectError(ConnectionError):
    """Connection establishment failed (after any configured retries).

    Carries a message that says *what to do about it* — the bare
    ``ConnectionRefusedError`` it replaces told callers racing a
    still-booting server nothing.
    """


# -- framing -----------------------------------------------------------------

def encode_message(obj: Any) -> bytes:
    """One protocol message as a ``\\n``-terminated JSON line."""
    return json.dumps(obj).encode("utf-8") + b"\n"


def decode_message(line: Union[bytes, str]) -> dict:
    """Parse one line into a message object.

    Raises :class:`ProtocolError` on malformed JSON or a non-object
    payload — the two failure shapes every endpoint must answer the
    same way (``code="bad-request"``, connection stays usable).  The
    decode runs with the cyclic collector paused
    (:data:`~repro._collector.collector_paused`): a response line
    decodes into tens of thousands of containers, none of them in a
    cycle.
    """
    try:
        with collector_paused:
            message = json.loads(line)
    except ValueError:
        raise ProtocolError("request is not valid JSON")
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


# -- response envelopes ------------------------------------------------------

def ok_envelope(request_id: Any, result: Any) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_envelope(request_id: Any, message: str,
                   code: str = "bad-request") -> dict:
    return {"id": request_id, "ok": False, "error": message,
            "code": code}


#: How a line carrying a fresh analyze result begins.
_FRESH_PREFIX = b'{"fresh": "'

#: The name of the field a payload is spliced in as.
_PAYLOAD_FIELD = b'"payload": '


def splice_payload(obj: dict, payload: Optional[bytes]) -> bytes:
    """``json.dumps(obj)``, with ``payload`` (a result payload's
    canonical JSON bytes, when given) spliced in as its last field,
    ``"payload"``, without decoding or re-encoding it."""
    body = json.dumps(obj).encode("utf-8")
    if payload is None:
        return body
    return b"".join((body[:-1], b", " if obj else b"", _PAYLOAD_FIELD,
                     payload, b"}"))


def frame_ok(request_id: Any, result: bytes,
             fresh: Optional[str] = None) -> bytes:
    """One framed ok response around ``result``, a JSON object already
    encoded: byte for byte the line ``encode_message(ok_envelope(
    request_id, ...))`` writes for that object when ``result`` is in
    its form, after the optional leading ``fresh`` field (see
    :func:`frame_analyze`)."""
    head = (b'{"id": ' if fresh is None
            else b"".join((_FRESH_PREFIX, fresh.encode("ascii"),
                           b'", "id": ')))
    return b"".join((head, json.dumps(request_id).encode("utf-8"),
                     b', "ok": true, "result": ', result, b"}\n"))


def frame_analyze(request_id: Any, result: dict,
                  fresh: Optional[str] = None,
                  payload: Optional[bytes] = None) -> bytes:
    """One framed analyze response, built around bytes already encoded.

    ``payload`` is the result payload's canonical JSON bytes (a shard
    keeps them on the cached payload, so a hit is not re-encoded); it
    is spliced in as the last field of ``result``, where
    :func:`framed_payload` finds it again.  ``fresh`` is the
    cache-key digest of a result this very request computed: it leads
    the line as ``"fresh": "<digest>"``, so a router finds the results
    it must replicate by their first bytes (:func:`fresh_digest`) and
    forwards every other response unparsed.  Apart from that field,
    which clients ignore, the line decodes to the same object as
    ``encode_message(ok_envelope(request_id, result + payload))``.
    """
    return frame_ok(request_id, splice_payload(result, payload), fresh)


def framed_payload(line: bytes) -> Optional[bytes]:
    """The payload bytes a :func:`frame_analyze` line carries, read by
    position: they follow the line's last ``"payload": `` and end
    before its two closing braces.  Canonical JSON has no space after
    a colon, so the payload itself never holds that field name.  None
    for a line that does not end like an ok response with a payload;
    the caller must know the line answers a request that asked for
    one, since a request id may hold the field name too."""
    start = line.rfind(_PAYLOAD_FIELD)
    if start < 0 or not line.endswith(b"}}}\n"):
        return None
    return line[start + len(_PAYLOAD_FIELD):-3]


def fresh_digest(line: bytes) -> Optional[str]:
    """The digest a :func:`frame_analyze` line marks as fresh, read
    from its leading bytes without parsing the rest; None for every
    other response."""
    if not line.startswith(_FRESH_PREFIX):
        return None
    start = len(_FRESH_PREFIX)
    end = line.find(b'"', start)
    return None if end < 0 else line[start:end].decode("ascii")


# -- asyncio server side -----------------------------------------------------

#: A request handler: raw line in, response out.  Returning ``bytes``
#: means "already framed, write verbatim" — the router's passthrough
#: path forwards shard responses without re-serializing them, and a
#: shard answers analyze with :func:`frame_analyze` lines.
LineHandler = Callable[[bytes], Awaitable[Union[dict, bytes, None]]]


class LineServer:
    """An asyncio TCP server running ``handler`` once per request line.

    Owns the accept loop, the per-connection read/dispatch/write
    cycle, blank-line tolerance, oversized-line recovery (answer once,
    close — the stream can no longer be re-framed), and the set of
    open client transports a draining process must hang up on
    (``Server.wait_closed`` waits for every connection handler from
    Python 3.12.1, and a handler parked in ``readline`` on an idle
    client would otherwise block shutdown forever).  :meth:`wait_closed`
    also waits for the handlers itself: before 3.12.1 the server's own
    wait returns at once, and the loop would then cancel the handlers
    mid-read, logging a traceback for each.

    An optional ``faults`` plan (:class:`repro.service.faults.FaultPlan`)
    hooks the three lifecycle points — accept, request-read,
    response-write — so chaos tests and the ``--faults`` flag can
    inject deterministic transport failures without touching the
    handler.
    """

    def __init__(self, handler: LineHandler, host: str = "127.0.0.1",
                 port: int = 0, limit: int = LINE_LIMIT,
                 faults: Optional[Any] = None) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.limit = limit
        self.faults = faults
        self.connections: set = set()
        #: the running connection-handler tasks
        self._handlers: set = set()
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Bind and accept; ``self.port`` holds the actual port
        afterwards (pass ``port=0`` for an ephemeral one)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=self.limit)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        faults = self.faults
        task = asyncio.current_task()
        self._handlers.add(task)
        self.connections.add(writer)
        try:
            if faults is not None and faults.on_accept():
                return
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line beyond the stream limit: readline wraps
                    # LimitOverrunError in ValueError.
                    writer.write(encode_message(error_envelope(
                        None, "request line exceeds %d bytes"
                        % self.limit)))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                if faults is not None:
                    dropped = False
                    for kind, delay in faults.on_request():
                        if kind == "crash-process":
                            faults.crash()
                        elif kind == "delay-read":
                            await asyncio.sleep(delay)
                        elif kind == "drop-connection":
                            dropped = True
                    if dropped:
                        break
                response = await self.handler(line)
                if response is None:
                    continue
                if not isinstance(response, bytes):
                    response = encode_message(response)
                if faults is not None:
                    delay, truncate = faults.on_response()
                    if delay:
                        await asyncio.sleep(delay)
                    if truncate:
                        # Half a line, then hang up: the torn write a
                        # crashing peer leaves behind.
                        writer.write(response[:max(1, len(response) // 2)])
                        await writer.drain()
                        break
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._handlers.discard(task)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop accepting new connections (established ones live on)."""
        if self._server is not None:
            self._server.close()

    def hang_up(self) -> None:
        """Close every open client transport, unblocking handlers
        parked in ``readline`` so :meth:`wait_closed` can finish."""
        for writer in list(self.connections):
            writer.close()

    async def wait_closed(self) -> None:
        """Wait until the server and every connection handler have
        ended (call :meth:`hang_up` first, or idle clients keep their
        handlers alive)."""
        if self._server is not None:
            await self._server.wait_closed()
        current = asyncio.current_task()
        handlers = [task for task in self._handlers if task is not current]
        if handlers:
            await asyncio.wait(handlers)


# -- asyncio client side (router -> shard) -----------------------------------

class AsyncLineConnection:
    """One upstream protocol connection inside an event loop.

    Strictly one request in flight at a time — callers that need
    concurrency hold several (the router's per-shard pool does).
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int,
                   limit: int = LINE_LIMIT) -> "AsyncLineConnection":
        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=limit)
        return cls(reader, writer)

    async def request_raw(self, line: bytes) -> bytes:
        """One round trip of pre-framed bytes; the response line comes
        back verbatim (framing included).  Raises ``ConnectionError``
        when the peer hangs up mid-cycle."""
        self.writer.write(line)
        await self.writer.drain()
        response = await self.reader.readline()
        if not response:
            raise ConnectError("peer closed the connection")
        if not response.endswith(b"\n"):  # truncated: peer died mid-write
            raise ConnectError("peer hung up mid-response")
        return response

    async def request(self, message: dict) -> dict:
        return decode_message(await self.request_raw(
            encode_message(message)))

    def close(self) -> None:
        self.writer.close()

    async def wait_closed(self) -> None:
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


# -- blocking client side ----------------------------------------------------

class BlockingLineConnection:
    """Synchronous protocol connection: the :class:`ServeClient`
    substrate and the load generator's inner loop.

    ``connect`` retries with exponential backoff — callers that spawn
    a server and race its socket (``spawn_server`` followed by a first
    request) get a grace window instead of a bare
    ``ConnectionRefusedError``, and a clear :class:`ConnectError`
    when the server really is not there.

    Pass ``endpoints=[(host, port), ...]`` instead of a single
    ``host``/``port`` to target a redundant fleet front door: each
    connect attempt walks the list (starting at the endpoint that last
    worked) and latches onto the first reachable one; :meth:`rotate`
    moves the preference along after a mid-request transport failure,
    so the next connect tries a different router first.  With one
    endpoint the behavior — including the error message — is exactly
    the single-address form.
    """

    def __init__(self, host: Optional[str] = None,
                 port: Optional[int] = None,
                 timeout: Optional[float] = 120.0,
                 endpoints: Optional[list] = None) -> None:
        if endpoints is not None:
            parsed = [(str(h), int(p)) for h, p in endpoints]
            if not parsed:
                raise ValueError("endpoints must be non-empty")
        else:
            if host is None or port is None:
                raise ValueError("give host and port, or endpoints=")
            parsed = [(str(host), int(port))]
        self.endpoints = parsed
        self._endpoint_index = 0
        self.host, self.port = parsed[0]
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def rotate(self) -> None:
        """Prefer the next endpoint on the next connect — the caller's
        failover hook after a mid-request transport error."""
        if len(self.endpoints) > 1:
            self._endpoint_index = ((self._endpoint_index + 1)
                                    % len(self.endpoints))
            self.host, self.port = self.endpoints[self._endpoint_index]

    def connect(self, retries: int = 0, backoff: float = 0.05,
                max_backoff: float = 1.0) -> None:
        """Establish the connection, retrying ``retries`` times with
        exponential backoff (``backoff``, doubling, capped at
        ``max_backoff`` seconds) on refusal/unreachability.  Every
        retry pass walks all configured endpoints once."""
        if self._sock is not None:
            return
        delay = backoff
        last_error: Optional[Exception] = None
        count = len(self.endpoints)
        for attempt in range(retries + 1):
            for step in range(count):
                index = (self._endpoint_index + step) % count
                host, port = self.endpoints[index]
                try:
                    sock = socket.create_connection(
                        (host, port), timeout=self.timeout)
                except OSError as error:
                    last_error = error
                    continue
                sock.setsockopt(socket.IPPROTO_TCP,
                                socket.TCP_NODELAY, 1)
                self._sock = sock
                self._file = sock.makefile("rwb")
                self._endpoint_index = index
                self.host, self.port = host, port
                return
            if attempt < retries:
                time.sleep(delay)
                delay = min(delay * 2, max_backoff)
        if count == 1:
            raise ConnectError(
                "no server listening at %s:%d after %d attempt(s): %s "
                "— is it still starting?  (spawn_server parses the "
                "ready line; wait_for_server polls ping)"
                % (self.host, self.port, retries + 1, last_error))
        raise ConnectError(
            "no server listening at any of %s after %d attempt(s): %s"
            % (", ".join("%s:%d" % e for e in self.endpoints),
               retries + 1, last_error))

    def round_trip(self, message: dict) -> dict:
        """One request/response cycle.  Raises ``ConnectionError`` on
        transport failure (the connection is closed and may be
        re-``connect``-ed), :class:`ProtocolError` on garbage."""
        if self._sock is None:
            self.connect()
        try:
            self._file.write(encode_message(message))
            self._file.flush()
            raw = self._file.readline()
        except OSError as error:
            self.close()
            raise ConnectError("connection to %s:%d failed: %s"
                               % (self.host, self.port, error)) from None
        if not raw:
            self.close()
            raise ConnectError("server at %s:%d closed the connection"
                               % (self.host, self.port))
        if not raw.endswith(b"\n"):
            # A partial line means the peer died mid-write; surface it
            # as a transport failure, never as (unparseable) data.
            self.close()
            raise ConnectError("server at %s:%d hung up mid-response"
                               % (self.host, self.port))
        return decode_message(raw)

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
