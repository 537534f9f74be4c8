"""Tests for the shared nd-JSON transport layer.

The protocol pieces — framing, envelopes, :class:`LineServer`,
:class:`AsyncLineConnection`, :class:`BlockingLineConnection` — are
exercised directly, without an analysis server behind them: an echo
handler is enough to pin framing, oversized-line recovery, the raw
passthrough path, and connect retry-with-backoff.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.service.transport import (
    AsyncLineConnection, BlockingLineConnection, ConnectError,
    LineServer, ProtocolError, decode_message, encode_message,
    error_envelope, frame_analyze, framed_payload, fresh_digest,
    ok_envelope, splice_payload)


# -- framing and envelopes ---------------------------------------------------

def test_encode_decode_roundtrip():
    message = {"op": "analyze", "benchmark": "QU", "id": 7,
               "nested": {"a": [1, 2, None]}}
    line = encode_message(message)
    assert line.endswith(b"\n")
    assert b"\n" not in line[:-1]
    assert decode_message(line) == message


def test_decode_rejects_garbage_and_non_objects():
    with pytest.raises(ProtocolError):
        decode_message(b"this is not json\n")
    with pytest.raises(ProtocolError):
        decode_message(b"[1, 2, 3]\n")
    with pytest.raises(ProtocolError):
        decode_message(b'"just a string"\n')


def test_envelope_shapes():
    assert ok_envelope(3, {"x": 1}) == {"id": 3, "ok": True,
                                        "result": {"x": 1}}
    error = error_envelope(None, "boom", "timeout")
    assert error == {"id": None, "ok": False, "error": "boom",
                     "code": "timeout"}
    assert error_envelope(1, "bad")["code"] == "bad-request"


RESULT = {"fingerprint": "f" * 64, "key": "ab12" * 16, "cached": True,
          "coalesced": False, "seconds": 0.000123}
PAYLOAD = {"entries": [{"pred": ["p", 1], "types": [None, 1.5]}],
           "name": "caf\u00e9", "stats": {"iterations": 3}}


@pytest.mark.parametrize("request_id", [7, "r-7", None])
@pytest.mark.parametrize("with_payload", [True, False])
def test_frame_analyze_is_the_ok_envelope_line(request_id, with_payload):
    """Unmarked, a framed analyze line is byte for byte what
    ``encode_message(ok_envelope(...))`` writes for the same result."""
    expected_result = (dict(RESULT, payload=PAYLOAD) if with_payload
                       else RESULT)
    line = frame_analyze(
        request_id, RESULT,
        payload=encode_message(PAYLOAD)[:-1] if with_payload else None)
    assert line == encode_message(ok_envelope(request_id,
                                              expected_result))
    assert fresh_digest(line) is None


@pytest.mark.parametrize("request_id", [7, "r-7", None])
def test_frame_analyze_fresh_marker_leads_the_line(request_id):
    digest = RESULT["key"]
    line = frame_analyze(request_id, RESULT, fresh=digest,
                         payload=encode_message(PAYLOAD)[:-1])
    assert line.startswith(b'{"fresh": "%s", ' % digest.encode())
    assert line.endswith(b"\n") and b"\n" not in line[:-1]
    assert fresh_digest(line) == digest
    message = decode_message(line)
    assert message.pop("fresh") == digest
    assert message == ok_envelope(request_id,
                                  dict(RESULT, payload=PAYLOAD))


def test_frame_analyze_empty_result():
    line = frame_analyze(1, {}, payload=b"[1]")
    assert decode_message(line) == ok_envelope(1, {"payload": [1]})


@pytest.mark.parametrize("request_id", [7, {"payload": 1}, None])
@pytest.mark.parametrize("fresh", [None, "ab12" * 16])
def test_framed_payload_reads_the_spliced_bytes_back(request_id, fresh):
    """A payload in canonical form comes back byte for byte from its
    position in the line, whatever the id and marker before it."""
    canonical = json.dumps(PAYLOAD, sort_keys=True,
                           separators=(",", ":")).encode()
    line = frame_analyze(request_id, RESULT, fresh=fresh,
                         payload=canonical)
    assert framed_payload(line) == canonical
    assert framed_payload(frame_analyze(7, RESULT)) is None
    assert framed_payload(encode_message(error_envelope(
        request_id, "boom"))) is None


def test_splice_payload_is_json_dumps_with_the_payload_last():
    assert splice_payload(RESULT, None) == json.dumps(RESULT).encode()
    spliced = splice_payload(RESULT, b'{"a":1}')
    assert json.loads(spliced) == dict(RESULT, payload={"a": 1})
    assert spliced.endswith(b', "payload": {"a":1}}')
    assert json.loads(splice_payload({}, b"[]")) == {"payload": []}


def test_fresh_digest_ignores_other_lines():
    for message in (ok_envelope(1, {"fresh": "x"}),
                    error_envelope(None, "boom", "not-found"),
                    {"op": "analyze", "fresh": "x"}):
        assert fresh_digest(encode_message(message)) is None
    assert fresh_digest(b'{"fresh": "unterminated') is None


# -- LineServer --------------------------------------------------------------

def run_with_server(handler, scenario, **kwargs):
    async def main():
        server = LineServer(handler, port=0, **kwargs)
        await server.start()
        try:
            return await scenario(server)
        finally:
            server.close()
            server.hang_up()
            await server.wait_closed()

    return asyncio.run(main())


def test_line_server_echo_and_blank_lines():
    async def echo(line):
        return {"echo": decode_message(line)}

    async def scenario(server):
        conn = await AsyncLineConnection.open("127.0.0.1", server.port)
        try:
            first = await conn.request({"n": 1})
            # blank lines between requests are tolerated, not answered
            conn.writer.write(b"\n   \n")
            second = await conn.request({"n": 2})
            return first, second
        finally:
            conn.close()
            await conn.wait_closed()

    first, second = run_with_server(echo, scenario)
    assert first == {"echo": {"n": 1}}
    assert second == {"echo": {"n": 2}}


def test_line_server_bytes_passthrough():
    """A handler returning bytes writes them verbatim — the router's
    no-reserialize forwarding path."""
    canned = b'{"ok": true, "result": {"raw": true}}\n'

    async def handler(line):
        return canned

    async def scenario(server):
        conn = await AsyncLineConnection.open("127.0.0.1", server.port)
        try:
            return await conn.request_raw(encode_message({"any": 1}))
        finally:
            conn.close()

    assert run_with_server(handler, scenario) == canned


def test_line_server_oversized_line_answers_then_closes():
    async def handler(line):  # pragma: no cover - never reached
        raise AssertionError("oversized line must not reach the handler")

    async def scenario(server):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        try:
            writer.write(b"x" * 4096 + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            rest = await reader.read()  # server closes after answering
            return response, rest
        finally:
            writer.close()

    response, rest = run_with_server(handler, scenario, limit=1024)
    assert not response["ok"]
    assert response["code"] == "bad-request"
    assert "exceeds" in response["error"]
    assert rest == b""


# -- AsyncLineConnection -----------------------------------------------------

def test_async_connection_peer_close_raises_connect_error():
    async def handler(line):
        return None  # answer nothing; the test closes via hang_up

    async def scenario(server):
        conn = await AsyncLineConnection.open("127.0.0.1", server.port)
        request = conn.request_raw(encode_message({"op": "ping"}))
        task = asyncio.ensure_future(request)
        await asyncio.sleep(0.05)
        server.hang_up()
        with pytest.raises(ConnectError):
            await task

    run_with_server(handler, scenario)


# -- BlockingLineConnection --------------------------------------------------

def _bound_socket():
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    return sock, sock.getsockname()[1]


def test_blocking_connect_error_is_actionable():
    """No listener: the failure names the address, the attempt count,
    and what to check — not a bare ConnectionRefusedError."""
    sock, port = _bound_socket()  # bound but never listening
    try:
        conn = BlockingLineConnection("127.0.0.1", port, timeout=1.0)
        with pytest.raises(ConnectError) as exc_info:
            conn.connect(retries=1, backoff=0.01)
        message = str(exc_info.value)
        assert "no server listening at 127.0.0.1:%d" % port in message
        assert "2 attempt(s)" in message
        assert "wait_for_server" in message
    finally:
        sock.close()


def test_blocking_connect_retries_until_listener_appears():
    """The retry window covers a server that starts listening late —
    the spawn-then-connect race ServeClient.connect must survive."""
    sock, port = _bound_socket()
    served = []

    def listen_late():
        time.sleep(0.25)
        sock.listen(1)
        client, _ = sock.accept()
        handle = client.makefile("rwb")
        line = handle.readline()
        served.append(line)
        handle.write(encode_message(ok_envelope(None, {"pong": True})))
        handle.flush()
        client.close()

    thread = threading.Thread(target=listen_late)
    thread.start()
    try:
        conn = BlockingLineConnection("127.0.0.1", port, timeout=5.0)
        conn.connect(retries=8, backoff=0.05, max_backoff=0.2)
        response = conn.round_trip({"op": "ping"})
        conn.close()
        assert response["ok"]
        assert served and json.loads(served[0]) == {"op": "ping"}
    finally:
        thread.join()
        sock.close()


def test_blocking_round_trip_peer_close_raises_connect_error():
    sock, port = _bound_socket()
    sock.listen(1)

    def accept_and_close():
        client, _ = sock.accept()
        client.recv(1024)
        client.close()

    thread = threading.Thread(target=accept_and_close)
    thread.start()
    try:
        conn = BlockingLineConnection("127.0.0.1", port, timeout=5.0)
        conn.connect()
        with pytest.raises(ConnectError) as exc_info:
            conn.round_trip({"op": "ping"})
        assert "closed the connection" in str(exc_info.value)
        assert not conn.connected  # closed, may be re-connect()-ed
    finally:
        thread.join()
        sock.close()


# -- multi-endpoint failover -------------------------------------------------

def _mini_server(max_requests=None):
    """A threaded nd-JSON ping server: answers every request with
    ``{"pong": True, "port": <its port>}`` so a test can tell which
    endpoint actually served.  ``max_requests`` makes it die after N
    answers — the failure the client must ride out."""
    sock, port = _bound_socket()
    sock.listen(4)
    answered = []

    def serve():
        while True:
            try:
                client, _ = sock.accept()
            except OSError:
                return  # listener closed: shut down
            handle = client.makefile("rwb")
            while True:
                line = handle.readline()
                if not line:
                    break
                message = json.loads(line)
                answered.append(message)
                handle.write(encode_message(ok_envelope(
                    message.get("id"), {"pong": True, "port": port})))
                handle.flush()
                if (max_requests is not None
                        and len(answered) >= max_requests):
                    client.close()
                    sock.close()
                    return
            client.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return sock, port, answered


def test_blocking_multi_endpoint_connects_to_first_live_endpoint():
    dead_sock, dead_port = _bound_socket()  # bound, never listening
    live_sock, live_port, _ = _mini_server()
    try:
        conn = BlockingLineConnection(
            timeout=5.0,
            endpoints=[("127.0.0.1", dead_port),
                       ("127.0.0.1", live_port)])
        # before connecting, the first endpoint is the target...
        assert (conn.host, conn.port) == ("127.0.0.1", dead_port)
        conn.connect(retries=1, backoff=0.01)
        # ...after, the connection latched onto the live one
        assert (conn.host, conn.port) == ("127.0.0.1", live_port)
        response = conn.round_trip({"id": 1, "op": "ping"})
        assert response["result"]["port"] == live_port
        conn.close()
    finally:
        dead_sock.close()
        live_sock.close()


def test_blocking_multi_endpoint_error_names_every_address():
    sock_a, port_a = _bound_socket()
    sock_b, port_b = _bound_socket()
    try:
        conn = BlockingLineConnection(
            timeout=1.0,
            endpoints=[("127.0.0.1", port_a), ("127.0.0.1", port_b)])
        with pytest.raises(ConnectError) as exc_info:
            conn.connect(retries=1, backoff=0.01)
        message = str(exc_info.value)
        assert "any of" in message
        assert str(port_a) in message and str(port_b) in message
    finally:
        sock_a.close()
        sock_b.close()


def test_serve_client_endpoint_list_fails_over_mid_stream():
    """The client-side half of router redundancy: a ServeClient given
    several endpoints replays an idempotent request against the next
    endpoint when the current one dies mid-round-trip."""
    from repro.service.client import ServeClient

    first_sock, first_port, first_answered = _mini_server(max_requests=1)
    second_sock, second_port, second_answered = _mini_server()
    try:
        client = ServeClient(endpoints=[("127.0.0.1", first_port),
                                        ("127.0.0.1", second_port)])
        assert client.endpoints == [("127.0.0.1", first_port),
                                    ("127.0.0.1", second_port)]
        served_by_first = client.ping()
        assert served_by_first["port"] == first_port
        # the first endpoint is now gone (it died after one answer);
        # the same client call must land on the second transparently
        served_by_second = client.ping()
        assert served_by_second["port"] == second_port
        assert (client.host, client.port) == ("127.0.0.1", second_port)
        client.close()
        assert len(first_answered) == 1
        assert len(second_answered) >= 1
    finally:
        first_sock.close()
        second_sock.close()


def test_serve_client_single_endpoint_behavior_unchanged():
    """The classic (host, port) form: same attributes, same error
    message shape — the endpoints feature must not disturb it."""
    from repro.service.client import ServeClient, ServeError

    sock, port = _bound_socket()  # never listening
    try:
        client = ServeClient("127.0.0.1", port, timeout=1.0)
        assert client.endpoints == [("127.0.0.1", port)]
        with pytest.raises(ServeError) as exc_info:
            client.connect(retries=1, backoff=0.01)
        message = str(exc_info.value)
        assert "no server listening at 127.0.0.1:%d" % port in message
        assert "any of" not in message
    finally:
        sock.close()
