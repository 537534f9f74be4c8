"""The shared cyclic-collector pause (``repro._collector``): bulk JSON
decodes and fresh analyses run with the collector off, every pause
restores the state it found, and no pause switches the collector back
on while another, on any thread, is still open."""

import gc
import json
import socket
import threading

import pytest

from repro import analyze
from repro._collector import collector_paused
from repro.benchprogs import benchmark
from repro.service import transport
from repro.service.batch import _settled
from repro.service.serialize import result_head
from repro.service.transport import (BlockingLineConnection, ProtocolError,
                                     decode_message)
from repro.service.wire import encode_payload


def big_line(cells: int = 30000) -> bytes:
    """A response line that decodes into ~``2 * cells`` containers,
    far past every generation's threshold."""
    result = {"entries": [{"id": index, "beta_in": [index, "list"]}
                          for index in range(cells)]}
    return json.dumps({"id": 1, "ok": True, "result": result}).encode() \
        + b"\n"


class Collections:
    """Records each collection that starts while it is entered.

    A paused collector still counts allocations, so the first
    allocation after a bulk decode starts the one young collection
    the decode left due (:data:`AFTER_A_DECODE`); without the pause,
    the decode itself starts dozens."""

    def __init__(self):
        self.started = []

    def __call__(self, phase, info):
        if phase == "start":
            self.started.append(info["generation"])

    def __enter__(self):
        gc.collect()  # no generation is near its threshold
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self)


#: What :class:`Collections` may record around one paused decode.
AFTER_A_DECODE = ([], [0])


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


def serve_one_line(line: bytes):
    """A listening socket that answers one request with ``line``;
    returns ``(port, thread)``."""
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def answer():
        with server:
            conn, _ = server.accept()
            with conn, conn.makefile("rwb") as stream:
                stream.readline()
                stream.write(line)
                stream.flush()
                stream.readline()  # until the client hangs up

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return port, thread


def test_a_client_decode_starts_no_collection(collector_on):
    line = big_line()
    port, thread = serve_one_line(line)
    conn = BlockingLineConnection("127.0.0.1", port, timeout=30)
    try:
        with Collections() as collections:
            response = conn.round_trip({"op": "ping"})
    finally:
        conn.close()
        thread.join(timeout=30)
    assert collections.started in AFTER_A_DECODE
    assert gc.isenabled()
    assert response == json.loads(line)


def test_the_same_decode_collects_without_the_pause(collector_on):
    """The control: ``json.loads`` of the same line alone does start
    collections, so the test above measures the pause."""
    line = big_line()
    with Collections() as collections:
        json.loads(line)
    assert len(collections.started) > 10


def test_a_decode_equals_json_loads_of_the_line():
    error_line = json.dumps({"id": "x", "ok": False, "error": "\u00e9\u2028",
                             "code": "bad-request", "n": [1.5, None, True]},
                            ensure_ascii=False).encode() + b"\n"
    for line in (big_line(300), error_line):
        assert decode_message(line) == json.loads(line)
        assert decode_message(line.decode()) == json.loads(line)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_a_decode_restores_the_state_it_found(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        decode_message(big_line(300))
        assert gc.isenabled() is enabled
        for garbage in (b"not json\n", b"[1, 2]\n", b"{\"open\": \n"):
            with pytest.raises(ProtocolError):
                decode_message(garbage)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_payload_decodes_its_table_without_collections(collector_on):
    bp = benchmark("KA")
    result = analyze(bp.source, bp.query,
                     input_types=bp.input_types).result
    payload = encode_payload(result, result_head(result))
    with Collections() as collections:
        entries = payload["entries"]
    assert collections.started in AFTER_A_DECODE
    assert gc.isenabled()
    assert entries == json.loads(payload.wire)["entries"]


def test_concurrent_decodes_leave_the_collector_as_found(collector_on):
    line = big_line(3000)
    errors = []
    start = threading.Barrier(2)

    def decode_many():
        try:
            start.wait(timeout=30)
            for _ in range(40):
                assert decode_message(line)["ok"]
        except Exception as error:  # surfaced below
            errors.append(error)

    threads = [threading.Thread(target=decode_many) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    assert gc.isenabled()


def test_a_decode_never_resumes_the_collector_under_an_analysis(
        collector_on, monkeypatch):
    """A client decode that opens before a ``_settled`` analysis and
    closes during it leaves the collector off until the analysis
    returns, and the analysis's close switches it back on."""
    decoding, resume = threading.Event(), threading.Event()

    class HeldJson:
        @staticmethod
        def loads(line):
            decoding.set()
            assert resume.wait(timeout=30)
            return json.loads(line)

    monkeypatch.setattr(transport, "json", HeldJson)
    decoder = threading.Thread(target=decode_message,
                               args=(big_line(300),))
    decoder.start()
    assert decoding.wait(timeout=30)
    seen = []

    def analysis():
        seen.append(gc.isenabled())
        resume.set()
        decoder.join(timeout=30)
        seen.append(gc.isenabled())
        return "done"

    try:
        assert _settled(analysis) == "done"
    finally:
        resume.set()
        decoder.join(timeout=30)
        gc.unfreeze()
    assert seen == [False, False]
    assert gc.isenabled()


def test_nested_pauses_restore_the_outermost_state(collector_on):
    with collector_paused:
        with collector_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    gc.disable()
    with collector_paused:
        gc.enable()  # switched on by its own caller inside the pause
    assert not gc.isenabled()
