"""Tests for the ``repro serve`` daemon and its client.

Two layers:

* **subprocess smoke** — a real ``repro serve`` child driven through
  :class:`repro.service.client.ServeClient`: fingerprints identical to
  one-shot in-process analysis, duplicate in-flight requests coalesced
  to a single execution, graceful shutdown.
* **embedded** — an :class:`AnalysisServer` inside the test's event
  loop with a slowed-down execution hook, which makes backpressure,
  timeout, and drain behaviour deterministic.
"""

import asyncio
import json
import threading
import time

import pytest

from repro import analyze
from repro.benchprogs import benchmark
from repro.prolog.parser import MAX_DEPTH
from repro.service.cache import ResultCache
from repro.service.client import ServeClient, ServeError, spawn_server
from repro.service.serialize import payload_fingerprint, result_fingerprint
from repro.service import server as server_module
from repro.service.server import AnalysisServer, RequestError
from repro.service.transport import encode_message, ok_envelope


def direct_fingerprint(name):
    bp = benchmark(name)
    analysis = analyze(bp.source, bp.query, input_types=bp.input_types)
    return result_fingerprint(analysis.result)


# -- subprocess smoke --------------------------------------------------------

@pytest.fixture(scope="module")
def served():
    process, host, port = spawn_server("--timeout", "120")
    yield host, port
    try:
        with ServeClient(host, port, timeout=10) as client:
            client.shutdown()
        process.wait(timeout=30)
    except Exception:
        process.terminate()
        process.wait(timeout=30)


def test_benchmark_fingerprint_matches_oneshot(served):
    host, port = served
    with ServeClient(host, port) as client:
        result = client.analyze(benchmark="QU")
    assert result["fingerprint"] == direct_fingerprint("QU")
    assert result["payload"]["entries"]


def test_repeat_is_cache_hit(served):
    host, port = served
    with ServeClient(host, port) as client:
        first = client.analyze(benchmark="PL", payload=False)
        second = client.analyze(benchmark="PL", payload=False)
    assert second["cached"]
    assert second["fingerprint"] == first["fingerprint"]


def test_source_query_and_input_types(served, nreverse_source):
    host, port = served
    with ServeClient(host, port) as client:
        result = client.analyze(source=nreverse_source,
                                query=("nreverse", 2),
                                input_types=["list", "any"])
    direct = analyze(nreverse_source, ("nreverse", 2),
                     input_types=["list", "any"])
    assert result["fingerprint"] == result_fingerprint(direct.result)


def test_parallel_duplicates_coalesce_to_one_execution(served):
    """The acceptance-criteria scenario: N concurrent identical
    requests on a cold key -> one underlying analysis, N responders,
    all fingerprints identical to the one-shot CLI's."""
    host, port = served
    # a fresh source no other test analyzes -> cold CacheKey
    source = """
    coal([], []).
    coal([X|Xs], [f(X)|R]) :- coal(Xs, R).
    """
    with ServeClient(host, port) as client:
        before = client.stats()
    results = []
    errors = []

    def fire():
        try:
            with ServeClient(host, port) as client:
                results.append(client.analyze(source=source,
                                              query=("coal", 2),
                                              payload=False))
        except BaseException as error:  # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=fire) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(results) == 8
    fingerprints = {r["fingerprint"] for r in results}
    assert fingerprints == \
        {result_fingerprint(analyze(source, ("coal", 2)).result)}
    with ServeClient(host, port) as client:
        after = client.stats()
    assert after["analyses_executed"] - before["analyses_executed"] == 1
    coalesced = sum(1 for r in results if r["coalesced"])
    cached = sum(1 for r in results if r["cached"])
    assert coalesced + cached == 7
    assert after["coalesced"] - before["coalesced"] == coalesced


def test_batch_op(served):
    host, port = served
    with ServeClient(host, port) as client:
        report = client.batch(benchmarks=["QU", "PL"])
    names = [job["name"] for job in report["jobs"]]
    assert names == ["QU", "PL"]
    for job in report["jobs"]:
        assert job["ok"]
        assert job["fingerprint"] == direct_fingerprint(job["name"])


def test_invalidate_and_cache_info(served, append_source):
    host, port = served
    with ServeClient(host, port) as client:
        client.analyze(source=append_source, query=("append", 3),
                       payload=False)
        info = client.cache_info()
        assert info["entries"] >= 1
        report = client.invalidate(source=append_source)
        assert report["invalidated"] >= 1
        again = client.analyze(source=append_source,
                               query=("append", 3), payload=False)
        assert not again["cached"]


def test_errors_keep_connection_usable(served):
    host, port = served
    with ServeClient(host, port) as client:
        errors_before = client.stats()["errors"]
        for op in ("no-such-op", "digest", "fetch"):
            with pytest.raises(ServeError) as exc_info:
                client.request(op)
            assert exc_info.value.code == "bad-request"
            assert "unknown op" in str(exc_info.value)
        assert client.stats()["errors"] == errors_before + 3
        with pytest.raises(ServeError):
            client.analyze(source="p(a).", query=("p", "x"))
        with pytest.raises(ServeError):
            client.analyze(source="p(a).", query=("missing", 1))
        with pytest.raises(ServeError):
            client.analyze(source="p(a).", query=("p", 1),
                           input_types=["list", "any"])
        # and the connection still works
        assert client.ping()["pong"]


@pytest.mark.parametrize("width", [-1, -3, "abc", "5", 2.5, True])
def test_bad_or_width_is_a_bad_request(served, width):
    """A negative or non-integer ``or_width`` is refused up front:
    the native kernels read a negative width as no cap at all while
    the python tier caps, so it must never reach an analysis."""
    host, port = served
    with ServeClient(host, port) as client:
        with pytest.raises(ServeError) as exc_info:
            client.analyze(source="p(a).", query=("p", 1), or_width=width)
        assert exc_info.value.code == "bad-request"
        assert "or-width must be an integer >= 0" in str(exc_info.value)
        assert client.analyze(source="p(a).", query=("p", 1),
                              or_width=0)["payload"]["entries"]


def test_non_ascii_digit_is_a_syntax_error_with_position(served):
    host, port = served
    with ServeClient(host, port) as client:
        for digit in ("\u00b2", "\u0663"):
            with pytest.raises(ServeError) as exc_info:
                client.analyze(source="p(%s)." % digit, query=("p", 1))
            message = str(exc_info.value)
            assert "TokenizeError: unexpected character" in message
            assert "at line 1, column 3" in message
        assert client.ping()["pong"]


def test_character_code_escape_at_end_is_a_served_syntax_error(served):
    host, port = served
    with ServeClient(host, port) as client:
        with pytest.raises(ServeError) as exc_info:
            client.analyze(source="p(0'\\", query=("p", 1))
        message = str(exc_info.value)
        assert "TokenizeError: unterminated character code" in message
        assert "at line 1, column 6" in message
        assert client.ping()["pong"]


def test_nesting_beyond_the_limit_is_a_served_parse_error(served):
    host, port = served

    def nested(depth):
        return "p(%sa%s)." % ("f(" * (depth - 2), ")" * (depth - 2))

    with ServeClient(host, port) as client:
        with pytest.raises(ServeError) as exc_info:
            client.analyze(source=nested(10 * MAX_DEPTH), query=("p", 1))
        message = str(exc_info.value)
        assert "ParseError: term nested deeper than %d levels" \
            % MAX_DEPTH in message
        assert "at line 1, column" in message
        # the shard survives and still analyzes a term at the limit
        assert client.ping()["pong"]
        result = client.analyze(source=nested(MAX_DEPTH), query=("p", 1))
        assert result["payload"]["entries"]


def test_malformed_json_line(served):
    import socket
    host, port = served
    with socket.create_connection((host, port), timeout=30) as sock:
        handle = sock.makefile("rwb")
        handle.write(b"this is not json\n")
        handle.flush()
        response = json.loads(handle.readline())
        assert not response["ok"]
        assert response["code"] == "bad-request"
        handle.write(b'{"op": "ping"}\n')
        handle.flush()
        assert json.loads(handle.readline())["ok"]


# -- embedded deterministic tests -------------------------------------------

def run_scenario(scenario, **server_kwargs):
    """Start an embedded server on an ephemeral port, run the async
    scenario against it, and always drain afterwards."""

    async def main():
        server = AnalysisServer(port=0, **server_kwargs)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.drain_and_close()

    return asyncio.run(main())


async def send(server, request):
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   server.port)
    try:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()


async def send_raw(server, request):
    """One request; the response line exactly as the server wrote it."""
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   server.port,
                                                   limit=1 << 24)
    try:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        return await reader.readline()
    finally:
        writer.close()


FRESH = b'{"fresh": "'


def slow_execute(delay):
    real = server_module._execute_spec

    def execute(spec, program=None):
        time.sleep(delay)
        return real(spec, program)

    return execute


SOURCES = ["slow%d(a%d). slow%d(b%d)." % (i, i, i, i)
           for i in range(4)]


def test_backpressure_rejects_when_queue_full(monkeypatch):
    monkeypatch.setattr(server_module, "_execute_spec",
                        slow_execute(0.4))

    async def scenario(server):
        tasks = [asyncio.create_task(send(server, {
            "op": "analyze", "source": SOURCES[i],
            "query": ["slow%d" % i, 1], "payload": False,
        })) for i in range(3)]
        # let the first two occupy the queue before the third lands
        responses = await asyncio.gather(*tasks)
        return responses

    responses = run_scenario(scenario, max_pending=2)
    codes = sorted((r.get("code") or "ok") for r in responses)
    assert codes.count("overloaded") >= 1
    assert codes.count("ok") == 2


def test_timeout_then_warm_retry(monkeypatch):
    monkeypatch.setattr(server_module, "_execute_spec",
                        slow_execute(0.5))

    async def scenario(server):
        request = {"op": "analyze", "source": SOURCES[3],
                   "query": ["slow3", 1], "payload": False}
        first = await send(server, dict(request, timeout=0.05))
        assert not first["ok"]
        assert first["code"] == "timeout"
        # the abandoned computation finishes and lands in the cache
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            retry = await send(server, request)
            if retry["ok"]:
                return retry
            await asyncio.sleep(0.05)
        raise AssertionError("retry never succeeded")

    # the retry either rode the still-running computation (coalesced)
    # or arrived after it landed in the cache — both are warm paths
    retry = run_scenario(scenario, request_timeout=30.0)
    assert retry["result"]["cached"] or retry["result"]["coalesced"]


def test_shutdown_drains_inflight(tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "_execute_spec",
                        slow_execute(0.3))
    cache = ResultCache(tmp_path)

    async def scenario(server):
        task = asyncio.create_task(send(server, {
            "op": "analyze", "source": "drainme(a).",
            "query": ["drainme", 1], "payload": False}))
        await asyncio.sleep(0.1)  # the analysis is now in flight
        shutdown = await send(server, {"op": "shutdown"})
        assert shutdown["ok"]
        assert shutdown["result"]["draining"] == 1
        response = await task
        assert response["ok"], response
        await server.serve_until_shutdown()
        # new computations are refused while draining
        return response

    run_scenario(scenario, cache=cache)
    # the drained result was flushed/persisted for the next process
    fresh = ResultCache(tmp_path)
    assert len(fresh) == 1


def test_draining_rejects_new_computations():
    async def scenario(server):
        server._draining = True
        response = await send(server, {
            "op": "analyze", "source": "latecomer(a).",
            "query": ["latecomer", 1], "payload": False})
        assert not response["ok"]
        assert response["code"] == "shutting-down"
        # but pings still answer
        assert (await send(server, {"op": "ping"}))["ok"]

    run_scenario(scenario)


def test_request_error_codes():
    error = RequestError("nope")
    assert error.code == "bad-request"
    assert str(RequestError("busy", "overloaded")) == "busy"


def test_stats_shape(served):
    host, port = served
    with ServeClient(host, port) as client:
        stats = client.stats()
    for field in ("uptime", "requests", "analyses_executed",
                  "coalesced", "rejected", "timeouts", "queue_depth",
                  "max_pending", "cache", "opcache", "arena",
                  "latency"):
        assert field in stats, field
    assert stats["latency"]["count"] >= 1
    assert stats["latency"]["p95"] >= stats["latency"]["p50"]
    assert stats["cache"]["hit_rate"] is None or \
        0.0 <= stats["cache"]["hit_rate"] <= 1.0


def test_worker_pool_mode_matches_oneshot():
    """workers>=1 dispatches to a persistent process pool; results
    must be identical to the in-process path."""
    process, host, port = spawn_server("--workers", "2",
                                       "--timeout", "120")
    try:
        with ServeClient(host, port) as client:
            first = client.analyze(benchmark="AR", payload=False)
            second = client.analyze(benchmark="AR", payload=False)
            assert first["fingerprint"] == direct_fingerprint("AR")
            assert second["cached"]
            client.shutdown()
        process.wait(timeout=60)
        assert process.returncode == 0
    finally:
        if process.poll() is None:
            process.terminate()
            process.wait(timeout=30)


@pytest.mark.parametrize("command", ["serve", "router"])
def test_served_shutdown_leaves_no_traceback(tmp_path, command):
    """A ``shutdown`` while another client still holds a connection
    ends every connection handler before the loop closes; on Python
    < 3.12.1 the loop used to cancel the idle one mid-read and log a
    ``CancelledError`` traceback."""
    from repro.service.client import spawn_router
    log = tmp_path / "stderr.log"
    if command == "serve":
        process, host, port = spawn_server(stderr_path=str(log))
    else:
        process, host, port = spawn_router("--spawn", "1",
                                           stderr_path=str(log))
    try:
        with ServeClient(host, port) as idle, \
                ServeClient(host, port) as client:
            assert idle.ping()["pong"]
            client.shutdown()
            assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.terminate()
            process.wait(timeout=30)
        if process.stdout is not None:
            process.stdout.close()
    err = log.read_text()
    assert "drained and stopped" in err
    assert "Traceback" not in err, err


# -- analyze responses framed from stored bytes -------------------------------

TABLE1 = ["KA", "QU", "PR", "PE", "CS", "DS", "PG", "RE", "BR", "PL"]


def test_spliced_analyze_responses_equal_the_envelope_encoding():
    """Every analyze response (fresh or a hit answered from stored
    payload bytes) decodes to what ``encode_message(ok_envelope(...))``
    gives for the same result and the cached payload."""
    request_ids = [11, "req-11", None]

    async def scenario(server):
        checked = 0
        for index, name in enumerate(TABLE1 + ["CHK"]):
            # the fresh read alternates payload on/off across programs
            plan = [(request_ids[index % 3], index % 2 == 0)]
            plan += [(rid, want) for want in (True, False)
                     for rid in request_ids]
            for position, (rid, want) in enumerate(plan):
                line = await send_raw(server, {
                    "id": rid, "op": "analyze", "benchmark": name,
                    "payload": want})
                message = json.loads(line)
                digest = message["result"]["key"]
                assert message.pop("fresh", None) == (
                    digest if position == 0 else None), (name, position)
                result = dict(message["result"])
                assert result["cached"] == (position > 0)
                payload = server.cache._memory[digest].payload
                result.pop("payload", None)
                if want:
                    result["payload"] = payload
                    assert payload_fingerprint(
                        message["result"]["payload"]) == \
                        result["fingerprint"]
                expected = encode_message(ok_envelope(rid, result))
                assert message == json.loads(expected), (name, rid, want)
                if position > 0:  # a hit: byte for byte the old line
                    assert line == expected
                checked += 1
        return checked

    assert run_scenario(scenario) == 11 * 7


def test_fresh_marker_only_on_successful_fresh_analyze(monkeypatch):
    monkeypatch.setattr(server_module, "_execute_spec",
                        slow_execute(0.3))
    source = "marked(a). marked(b)."

    async def scenario(server):
        request = {"op": "analyze", "source": source,
                   "query": ["marked", 1]}
        first, rider = await asyncio.gather(
            send_raw(server, dict(request, id=1)),
            send_raw(server, dict(request, id=2, payload=False)))
        lines = {
            "cached": await send_raw(server, dict(request, id=3)),
            "coalesced": rider,
            "error": await send_raw(server, {
                "id": 4, "op": "analyze", "benchmark": "NOPE"}),
            "check": await send_raw(server, {
                "id": 5, "op": "check", "benchmark": "CHK"}),
            "slice": await send_raw(server, {
                "id": 6, "op": "slice", "source": "sliced(a).",
                "query": ["sliced", 1]}),
            "batch": await send_raw(server, {
                "id": 7, "op": "batch", "jobs": [
                    {"source": "batched(a).", "query": ["batched", 1]}],
                "payload": True}),
        }
        return first, lines

    first, lines = run_scenario(scenario)
    message = json.loads(first)
    assert first.startswith(FRESH)
    assert message["fresh"] == message["result"]["key"]
    assert not message["result"]["cached"]
    coalesced = json.loads(lines["coalesced"])["result"]
    assert coalesced["coalesced"] and "payload" not in coalesced
    assert json.loads(lines["cached"])["result"]["cached"]
    assert not json.loads(lines["error"])["ok"]
    for what in ("check", "slice", "batch"):  # each computed afresh
        assert json.loads(lines[what])["ok"], what
    for what, line in lines.items():
        assert not line.startswith(FRESH), what
        assert "fresh" not in json.loads(line), what


def test_recompute_after_invalidate_serves_new_payload_bytes(monkeypatch):
    """Stored bytes belong to one computation: after ``invalidate`` the
    recomputed result's hits carry the new payload."""
    real = server_module._execute_spec
    runs = []

    def numbered(spec, program=None):
        name, payload, extra = real(spec, program)
        runs.append(spec)
        return name, dict(payload, stats=dict(payload["stats"],
                                              run=len(runs))), extra

    monkeypatch.setattr(server_module, "_execute_spec", numbered)
    source = "again(a). again(b)."
    request = {"op": "analyze", "source": source, "query": ["again", 1]}

    async def scenario(server):
        runs_seen = []
        for _ in range(2):
            for _ in range(3):  # one fresh read, then two hits
                line = await send_raw(server, dict(request, id=1))
                runs_seen.append(json.loads(line)["result"]["payload"]
                                 ["stats"]["run"])
            invalidated = await send(server, {
                "id": 2, "op": "invalidate", "source": source})
            assert invalidated["result"]["invalidated"] == 1
        return runs_seen

    assert run_scenario(scenario) == [1, 1, 1, 2, 2, 2]
