"""serve-edit and router-read: closed-loop clients of ``repro serve``
and ``repro router``.

serve-edit is the write side: one warm server, one client, every
request of an edit a cache miss.  router-read is the read side: two
clients reading whole payloads through ``repro router --spawn 2
--replicate 2``, where the router decodes every analyze response, with
a small share of edits.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import harness
import metrics
import pipeline
import streams
from spans import SpanRecorder
from workload import Collector, end_to_end, pipeline_layers, run_passes

from repro.service.client import (ServeClient, ServeError, spawn_router,
                                  spawn_server)
from repro.service.transport import encode_message

#: A server's memory tier holds this many results, fewer than one run
#: creates, so runs cover evictions and resident memory levels off
#: early in the run instead of growing with throughput.
SERVE_MEMORY_ENTRIES = "32"

_TIMEOUT = 120.0


def _served_dump(obj: dict) -> str:
    """The server's rendering of a response carrying ``obj``."""
    return encode_message({"id": 1, "ok": True,
                           "result": {"payload": obj}}).decode()


def warm_replay(ctx) -> None:
    """Analyze the committed corpus once in this process, untimed, so
    replays run warm as the server's analyses do."""
    spans = SpanRecorder()
    for name, bp in ctx.corpus.items():
        pipeline.run(spans, bp.source, bp.query, bp.input_types,
                     name == streams.CHECK_PROGRAM)


class Served:
    """State of one served run: oracle checks, samples, spans."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.col = Collector()
        self.spans = SpanRecorder()
        self.records = []
        self.server_records = []
        self.hops = []

    def request(self, client, op: dict):
        """Send one op; (response, start, end) or raise ServeError."""
        bp = self.ctx.corpus[op["program"]]
        source = streams.edited(bp.source, op["edit"])
        start = time.perf_counter()
        if op["kind"] == "check":
            res = client.check(source=source, query=bp.query,
                               input_types=bp.input_types)
        else:
            res = client.analyze(source=source, query=bp.query,
                                 input_types=bp.input_types)
        return res, start, time.perf_counter()

    def verify(self, op: dict, res: dict) -> list:
        oracle = self.ctx.oracle
        name = op["program"]
        problems = []
        if res.get("cached") != (op["cls"] == "read"):
            problems.append("%s %s: cached=%r" % (name, op["cls"],
                                                 res.get("cached")))
        if op["kind"] == "check":
            if res.get("passed") is not False:
                problems.append("CHK: passed=%r" % res.get("passed"))
            return problems + oracle.check_verdicts(res["verdicts"])
        problems += oracle.check_table(name, res["payload"],
                                       res["fingerprint"],
                                       self.ctx.fingerprint_of)
        if op["cls"] == "edit":
            problems += oracle.check_table(name, res["payload"], None,
                                           self.ctx.fingerprint_of)
        return problems

    def do(self, client, op: dict, traced: bool, direct=None) -> None:
        rid = "%s:%s" % (op["program"], op["edit"])
        try:
            res, start, end = self.request(client, op)
            problems = self.verify(op, res)
            self.col.checked(time.perf_counter() - end)
        except Exception as error:  # one failed operation, not the run
            problems = ["%s: %s: %s" % (op["program"],
                                        type(error).__name__, error)]
        if problems:
            self.col.fail("; ".join(problems))
            return
        self.col.ok(op["program"], op["cls"], end - start, traced)
        self.col.served(op["cls"], end - start, res["seconds"])
        self.count(op, res)
        if not traced:
            return
        spans = self.spans
        parent = spans.add("request", start, end, spans.current(), rid)
        server_start = start + (end - start - res["seconds"]) / 2
        spans.add("server." + op["cls"], server_start,
                  server_start + res["seconds"], parent, rid)
        if direct is not None and op["cls"] == "read":
            self.hop(direct, op, end - start, rid)
        self.replay(op, res, rid)

    def count(self, op: dict, res: dict) -> None:
        """The server's own engine counters for a fresh analysis."""
        if op["cls"] != "edit":
            return
        stats = res["payload"]["stats"]
        record = {field: stats.get(field, 0)
                  for field in pipeline.STAT_FIELDS}
        record["program"] = op["program"]
        with self.col.lock:
            self.server_records.append(record)

    def hop(self, direct, op: dict, routed: float, rid: str) -> None:
        """The same read sent straight to its home shard: the routed
        time minus this one is the router hop."""
        try:
            res, start, end = self.request(direct(op), op)
        except (ServeError, OSError) as error:
            self.col.fail("%s direct: %s" % (op["program"], error))
            return
        self.spans.add("direct", start, end, self.spans.current(), rid)
        with self.col.lock:
            self.hops.append(routed - (end - start))

    def replay(self, op: dict, res: dict, rid: str) -> None:
        """Re-run in this process what the server did for ``op``: the
        whole pipeline for a miss, the response encoding for a hit."""
        with self.spans.span("replay", rid):
            if op["cls"] == "read":
                with self.spans.span("serialize.dump", rid):
                    encode_message({"id": 1, "ok": True, "result": res})
                return
            bp = self.ctx.corpus[op["program"]]
            _, _, counters = pipeline.run(
                self.spans, streams.edited(bp.source, op["edit"]),
                bp.query, bp.input_types, op["kind"] == "check",
                dump=_served_dump, rid=rid)
            counters["program"] = op["program"]
            with self.col.lock:
                self.records.append(counters)

    def passes(self, client, stream, direct=None) -> float:
        def body(ops, traced):
            began = time.perf_counter()
            with (self.spans.span("pass") if traced else nullcontext()):
                for op in ops:
                    self.do(client, op, traced, direct)
            self.col.end_pass(time.perf_counter() - began, traced)
        return run_passes(stream, self.ctx.seconds, body, self.ctx.trace)

    def result(self, wall: float, setups: list, peak_rss: float,
               stats: dict, router: dict, clients: int = 1) -> dict:
        out = {"collector": self.col, "spans": self.spans,
               "root": "pass", "setups": setups, "bypassed": ()}
        out["end_to_end"] = end_to_end(self.col, wall,
                                       metrics.median(setups), peak_rss,
                                       clients)
        if self.ctx.trace:
            out["per_layer"] = self.per_layer(stats, router)
        return out

    def per_layer(self, stats: dict, router: dict) -> dict:
        col = self.col
        layer = pipeline_layers(self.spans.spans, self.server_records,
                                self.records)
        for cls in ("read", "edit", "check"):
            values = col.server_s.get(cls)
            layer["server.%s_s_p50" % cls] = (
                metrics.median(values) if values else 0.0, "s")
        layer["transport.ms_p50"] = (
            metrics.median(col.transport_s) * 1000.0, "ms")
        cache = stats["cache"]
        layer["cache.hit_ratio"] = (cache["hit_rate"] or 0.0, "ratio")
        layer["cache.evictions"] = (cache["evictions"], "count")
        for field in ("analyses_executed", "coalesced", "rejected",
                      "errors"):
            layer["server." + field] = (stats[field], "count")
        layer["router.hop_ms_p50"] = (
            metrics.median(self.hops) * 1000.0 if self.hops else 0.0,
            "ms")
        for field in ("replications", "replication_failures",
                      "anti_entropy_passes", "anti_entropy_repairs",
                      "read_repairs", "failovers", "forward_retries"):
            layer["router." + field] = (router.get(field, 0), "count")
        per_program = metrics.per_pass_time(col.samples,
                                            max(col.passes, 1))
        for name in streams.TABLE1:
            layer["program.%s.wall_s" % name] = (per_program[name], "s")
        untraced, traced = col.pass_s[False], col.pass_s[True]
        layer["trace.overhead_share"] = (
            metrics.median(traced) / metrics.median(untraced) - 1.0
            if traced and untraced else 0.0, "ratio")
        return layer


def _shutdown(host: str, port: int, proc) -> None:
    """Ask a daemon to shut down, wait for it, and make sure nothing it
    spawned outlives it."""
    start = time.perf_counter()
    spawned = harness.descendants(proc.pid)
    try:
        with ServeClient(host, port, timeout=30) as client:
            client.shutdown()
    except (ServeError, OSError):
        proc.terminate()
    harness.stop_process(proc)
    harness.stop_strays(spawned)
    print("perfbench: stopped pid %d in %.2fs"
          % (proc.pid, time.perf_counter() - start), file=sys.stderr)


def run_serve(ctx) -> dict:
    run = Served(ctx)
    if ctx.trace:
        warm_replay(ctx)
    log = os.path.join(ctx.run_dir, "serve.log")
    chk = ctx.corpus[streams.CHECK_PROGRAM]
    setups = []
    proc = None
    try:
        for _ in range(3):
            if proc is not None:
                _shutdown(host, port, proc)
                proc = None
            start = time.perf_counter()
            proc, host, port = spawn_server(
                "--max-memory-entries", SERVE_MEMORY_ENTRIES,
                "--warm", ",".join(streams.TABLE1), stderr_path=log)
            with ServeClient(host, port, timeout=_TIMEOUT) as client:
                client.check(source=chk.source, query=chk.query,
                             input_types=chk.input_types)
            setups.append(time.perf_counter() - start)
        with ServeClient(host, port, timeout=_TIMEOUT) as client:
            wall = run.passes(client, streams.serve_passes(ctx.seed))
            stats = client.stats()
        peak = harness.vm_hwm_mb(proc.pid)
    finally:
        if proc is not None:
            _shutdown(host, port, proc)
    return run.result(wall, setups, peak, stats, {})


def _prime_router(ctx, host: str, port: int) -> None:
    """Read every committed program once, two clients in parallel, so
    each lands in its home shard's memory and its replica's."""
    def read(names):
        with ServeClient(host, port, timeout=_TIMEOUT) as client:
            for name in names:
                bp = ctx.corpus[name]
                client.analyze(source=bp.source, query=bp.query,
                               input_types=bp.input_types)
    names = list(streams.TABLE1)
    with ThreadPoolExecutor(2) as pool:
        for future in [pool.submit(read, names[0::2]),
                       pool.submit(read, names[1::2])]:
            future.result()


def run_router(ctx) -> dict:
    run = Served(ctx)
    if ctx.trace:
        warm_replay(ctx)
    setups = []
    proc = None
    try:
        for index in range(3):
            if proc is not None:
                _shutdown(host, port, proc)
                proc = None
            start = time.perf_counter()
            proc, host, port = spawn_router(
                "--spawn", "2", "--replicate", "2",
                "--max-memory-entries", SERVE_MEMORY_ENTRIES,
                "--cache-dir", os.path.join(ctx.run_dir, "l2-%d" % index),
                "--shard-log-dir", os.path.join(ctx.run_dir, "shards"),
                stderr_path=os.path.join(ctx.run_dir, "router.log"))
            _prime_router(ctx, host, port)
            setups.append(time.perf_counter() - start)

        def client_loop(client_index: int) -> float:
            homes = {}
            directs = {}

            def direct(op):
                bp = ctx.corpus[op["program"]]
                source = streams.edited(bp.source, op["edit"])
                target = homes.get(source)
                if target is None:
                    target = homes[source] = routed.request(
                        "route", source=source)["target"]
                if target not in directs:
                    shard_host, _, shard_port = target.rpartition(":")
                    directs[target] = ServeClient(
                        shard_host, int(shard_port),
                        timeout=_TIMEOUT).connect()
                return directs[target]

            with ServeClient(host, port, timeout=_TIMEOUT) as routed:
                try:
                    return run.passes(
                        routed, streams.router_passes(ctx.seed,
                                                      client_index),
                        direct if ctx.trace else None)
                finally:
                    for client in directs.values():
                        client.close()

        with ThreadPoolExecutor(2) as pool:
            walls = [f.result() for f in [pool.submit(client_loop, 0),
                                          pool.submit(client_loop, 1)]]
        with ServeClient(host, port, timeout=_TIMEOUT) as client:
            stats = client.stats()
        pids = [proc.pid] + [shard["pid"]
                             for shard in stats["shards"].values()]
        peak = max(harness.vm_hwm_mb(pid) for pid in pids)
    finally:
        if proc is not None:
            _shutdown(host, port, proc)
    return run.result(max(walls), setups, peak, stats["merged"],
                      stats["router"], clients=2)
