"""Tests for the sharded analysis cluster (``repro router``).

Two layers, mirroring ``test_server.py``:

* **ring algebra** — :class:`HashRing` properties that make the
  cluster operable: deterministic preference lists, and minimal key
  movement under membership change (the property that keeps warm
  shards warm when the fleet grows or shrinks).
* **embedded cluster** — real :class:`AnalysisServer` shards and a
  :class:`ClusterRouter` inside one event loop: routing determinism,
  fingerprints identical to direct analysis, shard-down failover,
  cross-shard L2 promotion through a shared cache dir, graceful
  drain, stats aggregation, and batch splitting.
"""

import asyncio
import json
import time

import pytest

from repro import analyze
from repro.benchprogs import benchmark
from repro.service import server as server_module
from repro.service.cluster import (ClusterRouter, HashRing,
                                   MembershipJournal, load_fleet)
from repro.service.serialize import result_fingerprint
from repro.service.server import AnalysisServer


# -- hash ring ---------------------------------------------------------------

KEYS = ["key-%04d" % i for i in range(400)]


def test_ring_preference_is_deterministic_and_complete():
    ring_a = HashRing(["s1", "s2", "s3"], vnodes=32)
    ring_b = HashRing(["s3", "s1", "s2"], vnodes=32)  # order-independent
    for key in KEYS[:50]:
        preference = ring_a.preference(key)
        assert sorted(preference) == ["s1", "s2", "s3"]
        assert preference == ring_b.preference(key)
        assert ring_a.node_for(key) == preference[0]


def test_ring_spreads_keys_over_all_nodes():
    ring = HashRing(["s1", "s2", "s3", "s4"], vnodes=64)
    counts = {}
    for key in KEYS:
        counts[ring.node_for(key)] = counts.get(ring.node_for(key), 0) + 1
    assert set(counts) == {"s1", "s2", "s3", "s4"}
    # vnodes keep the split coarse-grained fair (no shard starved)
    assert min(counts.values()) >= len(KEYS) * 0.10


def test_ring_add_node_moves_only_keys_to_the_new_node():
    ring = HashRing(["s1", "s2", "s3", "s4"], vnodes=64)
    before = {key: ring.node_for(key) for key in KEYS}
    ring.add("s5")
    moved = 0
    for key in KEYS:
        owner = ring.node_for(key)
        if owner != before[key]:
            moved += 1
            assert owner == "s5"  # every moved key moved TO the joiner
    # ~1/5 of the space moves; anything near full reshuffle is a bug
    assert 0 < moved <= len(KEYS) * 0.45


def test_ring_remove_node_strands_only_its_keys():
    ring = HashRing(["s1", "s2", "s3", "s4"], vnodes=64)
    before = {key: ring.node_for(key) for key in KEYS}
    ring.remove("s2")
    for key in KEYS:
        if before[key] != "s2":
            assert ring.node_for(key) == before[key]
        else:
            assert ring.node_for(key) != "s2"


def test_ring_preference_order_is_the_failover_order():
    """Marking the owner down and rehashing must equal 'skip to the
    next entry of the preference list' — the router relies on it."""
    ring = HashRing(["s1", "s2", "s3"], vnodes=64)
    for key in KEYS[:100]:
        preference = ring.preference(key)
        survivor_ring = HashRing([node for node in ("s1", "s2", "s3")
                                  if node != preference[0]], vnodes=64)
        assert survivor_ring.node_for(key) == preference[1]


# -- embedded cluster --------------------------------------------------------

def run_cluster(scenario, shards=2, server_kwargs=None,
                router_kwargs=None):
    """N embedded shards + a router in one event loop; always drains
    router first, then the shards."""

    async def main():
        servers = [AnalysisServer(port=0,
                                  **(server_kwargs(index)
                                     if callable(server_kwargs)
                                     else dict(server_kwargs or {})))
                   for index in range(shards)]
        for server in servers:
            await server.start()
        kwargs = dict(health_interval=0.2, backoff=0.01,
                      down_after=2, request_timeout=60.0)
        kwargs.update(router_kwargs or {})
        router = ClusterRouter([("127.0.0.1", server.port)
                                for server in servers], port=0,
                               **kwargs)
        await router.start()
        try:
            return await scenario(router, servers)
        finally:
            await router.drain_and_close(shutdown_spawned=False)
            for server in servers:
                await server.drain_and_close()

    return asyncio.run(main())


async def send(port, request):
    reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                   limit=1 << 24)
    try:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()


def direct_fingerprint(name):
    bp = benchmark(name)
    analysis = analyze(bp.source, bp.query, input_types=bp.input_types)
    return result_fingerprint(analysis.result)


def shard_owning(router, benchmark_name):
    """(shard_id, index into router's shard order) the ring assigns."""
    key = router._routing_hash({"benchmark": benchmark_name})
    node = router.ring.preference(key)[0]
    return node, list(router.shards).index(node)


def test_router_analyze_matches_direct_and_sticks_to_one_shard():
    async def scenario(router, servers):
        first = await send(router.port, {
            "id": 1, "op": "analyze", "benchmark": "QU",
            "payload": False})
        second = await send(router.port, {
            "id": 2, "op": "analyze", "benchmark": "QU",
            "payload": False})
        route = await send(router.port, {"id": 3, "op": "route",
                                         "benchmark": "QU"})
        return first, second, route

    first, second, route = run_cluster(scenario)
    assert first["ok"] and second["ok"]
    assert first["id"] == 1 and second["id"] == 2  # ids pass through
    assert first["result"]["fingerprint"] == direct_fingerprint("QU")
    assert second["result"]["fingerprint"] == \
        first["result"]["fingerprint"]
    # the repeat was a warm hit on the owning shard, not a re-analysis
    assert second["result"]["cached"]
    assert route["result"]["target"] == route["result"]["preference"][0]


def test_router_distributes_distinct_programs():
    """With enough distinct programs both shards end up owning some."""
    sources = ["p%d(a). p%d(b)." % (i, i) for i in range(12)]

    async def scenario(router, servers):
        for index, source in enumerate(sources):
            response = await send(router.port, {
                "id": index, "op": "analyze", "source": source,
                "query": ["p%d" % index, 1], "payload": False})
            assert response["ok"]
        return [shard.forwarded for shard in router.shards.values()]

    forwarded = run_cluster(scenario)
    assert sum(forwarded) == len(sources)
    assert all(count > 0 for count in forwarded)


def test_shard_down_failover_keeps_fingerprints_identical():
    async def scenario(router, servers):
        fingerprint = direct_fingerprint("QU")
        first = await send(router.port, {
            "id": 1, "op": "analyze", "benchmark": "QU",
            "payload": False})
        assert first["result"]["fingerprint"] == fingerprint
        # kill the owning shard abruptly (no drain): next request must
        # fail over to the replica and still match the direct result
        owner, owner_index = shard_owning(router, "QU")
        victim = servers[owner_index]
        victim._server.close()
        victim._server.hang_up()
        await victim._server.wait_closed()
        second = await send(router.port, {
            "id": 2, "op": "analyze", "benchmark": "QU",
            "payload": False})
        return fingerprint, second, router.stats.failovers, owner

    fingerprint, second, failovers, owner = run_cluster(scenario)
    assert second["ok"], second
    assert second["result"]["fingerprint"] == fingerprint
    assert failovers >= 1


def test_l2_promotion_hits_on_second_shard(tmp_path):
    """A result computed on one shard is a disk hit on another: the
    shared --cache-dir is the cross-shard L2."""
    cache_dir = str(tmp_path / "l2")

    async def scenario(router, servers):
        owner, owner_index = shard_owning(router, "RE")
        first = await send(router.port, {
            "id": 1, "op": "analyze", "benchmark": "RE",
            "payload": False})
        assert first["ok"] and not first["result"]["cached"]
        # Take the owner out; the replica must serve from shared disk.
        # A health probe must not bring the owner back (it would serve
        # the read from its memory tier); one is run here to show it.
        await take_out(router, owner)
        await router._check_shard(router.shards[owner])
        second = await send(router.port, {
            "id": 2, "op": "analyze", "benchmark": "RE",
            "payload": False})
        replica_index = 1 - owner_index
        disk_hits = servers[replica_index].cache.stats.disk_hits
        return first, second, disk_hits

    # each shard gets its own ResultCache over the SAME directory —
    # separate memory LRUs, one shared disk store (the deployment shape)
    from repro.service.cache import ResultCache
    first, second, disk_hits = run_cluster(
        scenario, server_kwargs=lambda i: {"cache": ResultCache(cache_dir)})
    assert second["ok"], second
    assert second["result"]["cached"]  # no recomputation
    assert second["result"]["fingerprint"] == \
        first["result"]["fingerprint"]
    assert disk_hits >= 1


def test_drain_completes_inflight_and_reroutes(monkeypatch):
    real = server_module._execute_spec

    def slow_execute(spec, program=None):
        time.sleep(0.4)
        return real(spec, program)

    monkeypatch.setattr(server_module, "_execute_spec", slow_execute)
    source = "drainme(a). drainme(b)."

    async def scenario(router, servers):
        owner = router.ring.preference(
            router._routing_hash({"source": source}))[0]
        inflight = asyncio.ensure_future(send(router.port, {
            "id": 1, "op": "analyze", "source": source,
            "query": ["drainme", 1], "payload": False}))
        await asyncio.sleep(0.1)  # the slow analysis is now on-shard
        drain = await send(router.port, {"id": 2, "op": "drain-shard",
                                         "shard": owner})
        assert drain["ok"]
        assert drain["result"]["status"] == "draining"
        completed = await inflight  # in-flight request still finishes
        route = await send(router.port, {"id": 3, "op": "route",
                                         "source": source})
        undrain = await send(router.port, {
            "id": 4, "op": "undrain-shard", "shard": owner})
        route_back = await send(router.port, {"id": 5, "op": "route",
                                              "source": source})
        return owner, completed, route, undrain, route_back

    owner, completed, route, undrain, route_back = run_cluster(scenario)
    assert completed["ok"], completed
    # while draining, new work for its keys flows to the replica...
    assert route["result"]["target"] != owner
    # ...and undrain deterministically brings the keys home
    assert undrain["result"]["status"] == "up"
    assert route_back["result"]["target"] == owner


def test_stats_aggregation_merges_the_fleet():
    async def scenario(router, servers):
        for name in ("QU", "RE"):
            response = await send(router.port, {
                "id": 1, "op": "analyze", "benchmark": name,
                "payload": False})
            assert response["ok"]
        return await send(router.port, {"id": 2, "op": "stats"})

    stats = run_cluster(scenario)["result"]
    assert set(stats) == {"router", "merged", "shards"}
    assert stats["router"]["routed"] == 2
    assert stats["merged"]["shards_up"] == 2
    assert stats["merged"]["requests"] == 2
    assert stats["merged"]["analyses_executed"] == 2
    assert len(stats["shards"]) == 2
    assert stats["merged"]["latency"]["count"] == 2
    assert stats["router"]["latency"]["count"] >= 2


def test_batch_splits_by_shard_and_preserves_order():
    names = ["QU", "RE", "PG", "CS", "DS"]

    async def scenario(router, servers):
        return await send(router.port, {
            "id": 1, "op": "batch", "benchmarks": names})

    response = run_cluster(scenario)
    assert response["ok"], response
    jobs = response["result"]["jobs"]
    assert [job["name"] for job in jobs] == names
    for job in jobs:
        assert job["ok"]
        assert job["fingerprint"] == direct_fingerprint(job["name"])
    assert 1 <= response["result"]["shards"] <= 2


def test_invalidate_broadcasts_to_every_shard():
    source = "inval(a). inval(b)."

    async def scenario(router, servers):
        first = await send(router.port, {
            "id": 1, "op": "analyze", "source": source,
            "query": ["inval", 1], "payload": False})
        assert first["ok"]
        report = await send(router.port, {
            "id": 2, "op": "invalidate", "source": source})
        again = await send(router.port, {
            "id": 3, "op": "analyze", "source": source,
            "query": ["inval", 1], "payload": False})
        return report, again

    report, again = run_cluster(scenario)
    assert report["ok"]
    assert report["result"]["invalidated"] >= 1
    assert len(report["result"]["shards"]) == 2
    assert again["ok"] and not again["result"]["cached"]


def test_all_shards_down_is_a_clear_error():
    async def scenario(router, servers):
        for shard in router.shards.values():
            shard.mark_down()
        return await send(router.port, {
            "id": 1, "op": "analyze", "benchmark": "QU",
            "payload": False})

    response = run_cluster(scenario)
    assert not response["ok"]
    assert response["code"] == "no-shards"
    assert "down" in response["error"]


def test_router_rejects_unknown_ops_and_benchmarks():
    async def scenario(router, servers):
        unknown_ops = [await send(router.port, {"id": 1, "op": op})
                       for op in ("nope", "anti-entropy")]
        unknown_shard_ops = [await send(servers[0].port,
                                        {"id": 1, "op": op})
                             for op in ("digest", "fetch")]
        unknown_benchmark = await send(router.port, {
            "id": 2, "op": "analyze", "benchmark": "NO-SUCH"})
        unroutable = await send(router.port, {"id": 3, "op": "analyze"})
        ping = await send(router.port, {"id": 4, "op": "ping"})
        info = await send(router.port, {"id": 5, "op": "router-info"})
        shard_ping = await send(servers[0].port, {"id": 6, "op": "ping"})
        return (unknown_ops, unknown_shard_ops, unknown_benchmark,
                unroutable, ping, info, shard_ping)

    (unknown_ops, unknown_shard_ops, unknown_benchmark, unroutable, ping,
     info, shard_ping) = run_cluster(scenario)
    for unknown_op in unknown_ops:
        assert not unknown_op["ok"] and unknown_op["code"] == "bad-request"
        assert "unknown op" in unknown_op["error"]
        assert "router ops" in unknown_op["error"]
    for unknown_op in unknown_shard_ops:
        assert not unknown_op["ok"] and unknown_op["code"] == "bad-request"
        assert "unknown op" in unknown_op["error"]
    assert shard_ping["ok"]
    assert not unknown_benchmark["ok"]
    assert "NO-SUCH" in unknown_benchmark["error"]
    assert not unroutable["ok"]
    assert ping["ok"] and ping["result"]["router"]
    assert info["ok"]
    assert len(info["result"]["shards"]) == 2
    assert set(info["result"]["ring"]) == set(info["result"]["shards"])


# -- supervision -------------------------------------------------------------

class FakeProcess:
    """Just enough Popen for ShardState supervision."""

    def __init__(self, returncode=None, pid=4242):
        self.returncode = returncode
        self.pid = pid

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        return self.returncode

    def terminate(self):
        if self.returncode is None:
            self.returncode = -15


async def wait_until(predicate, timeout=8.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


async def take_out(router, node):
    """Take a live shard out of rotation until undrained.  A
    ``mark_down`` would not hold: the shard still answers pings, so
    the next health probe would mark it up again."""
    drained = await send(router.port, {"id": None, "op": "drain-shard",
                                       "shard": node})
    assert drained["ok"], drained


def test_supervisor_restarts_dead_shard_with_identical_results(tmp_path):
    """A supervised shard that dies is respawned on the same port and
    serves fingerprint-identical results; the death and restart are
    journaled and the crash log tail is printed."""
    log_path = tmp_path / "shard.log"
    log_path.write_bytes(b"boom: synthetic crash evidence\n")

    async def scenario(router, servers):
        fingerprint_before = (await send(router.port, {
            "id": 1, "op": "analyze", "benchmark": "QU",
            "payload": False}))["result"]["fingerprint"]
        owner, owner_index = shard_owning(router, "QU")
        victim_server = servers[owner_index]
        shard = router.shards[owner]
        # Make the owner a supervised spawned shard, then kill it.
        shard.process = FakeProcess(returncode=137)
        shard.spawn_argv = ["serve", "--port", str(shard.port)]
        shard.log_path = str(log_path)
        await victim_server.drain_and_close()
        loop = asyncio.get_running_loop()
        respawned = []

        def fake_spawn(dead_shard):
            # Runs on the executor thread, like the real respawn; the
            # loop is free, so schedule the new server onto it.
            async def boot():
                replacement = AnalysisServer(port=dead_shard.port)
                await replacement.start()
                return replacement

            replacement = asyncio.run_coroutine_threadsafe(
                boot(), loop).result(10)
            respawned.append(replacement)
            return FakeProcess(pid=4343)

        router._spawn_shard_process = fake_spawn
        restarted = await wait_until(
            lambda: shard.restarts == 1 and shard.status == "up")
        after = await send(router.port, {
            "id": 2, "op": "analyze", "benchmark": "QU",
            "payload": False})
        info = await send(router.port, {"id": 3, "op": "router-info"})
        try:
            return (fingerprint_before, restarted, after, info,
                    router.stats.restarts, list(router.membership_log))
        finally:
            for replacement in respawned:
                await replacement.drain_and_close()

    fingerprint, restarted, after, info, restarts, journal = \
        run_cluster(scenario,
                    router_kwargs={"health_interval": 0.05,
                                   "restart_backoff": 0.02})
    assert restarted, journal
    assert restarts == 1
    assert after["ok"], after
    assert after["result"]["fingerprint"] == fingerprint
    events = [entry["event"] for entry in journal]
    assert "shard-death" in events and "shard-restarted" in events
    shard_infos = info["result"]["shards"]
    restarted_info = next(i for i in shard_infos.values()
                          if i["restarts"] == 1)
    assert restarted_info["supervised"]
    assert restarted_info["last_probe_at"] is not None


def test_crash_loop_breaker_stops_restarting():
    """K rapid deaths trip the breaker: no more restart attempts, and
    the shard's keys keep flowing to the surviving replica."""

    async def scenario(router, servers):
        owner, owner_index = shard_owning(router, "QU")
        shard = router.shards[owner]
        await servers[owner_index].drain_and_close()
        shard.process = FakeProcess(returncode=1)
        shard.spawn_argv = ["serve", "--port", str(shard.port)]

        def failing_spawn(dead_shard):
            raise RuntimeError("spawn always fails")

        router._spawn_shard_process = failing_spawn
        tripped = await wait_until(lambda: shard.breaker_tripped)
        failures_at_trip = shard.restart_failures
        # Give the health loop a few more cycles: the breaker must
        # actually stop the restart attempts, not just set a flag.
        await asyncio.sleep(0.3)
        fail_over = await send(router.port, {
            "id": 1, "op": "analyze", "benchmark": "QU",
            "payload": False})
        return (tripped, failures_at_trip, shard.restart_failures,
                router.stats.breaker_trips, fail_over,
                list(router.membership_log))

    tripped, at_trip, after_wait, trips, fail_over, journal = \
        run_cluster(scenario,
                    router_kwargs={"health_interval": 0.03,
                                   "restart_backoff": 0.01,
                                   "breaker_deaths": 3,
                                   "breaker_window": 30.0})
    assert tripped, journal
    assert trips == 1
    assert after_wait == at_trip  # breaker froze the restart loop
    assert any(entry["event"] == "breaker-tripped" for entry in journal)
    assert fail_over["ok"], fail_over
    assert fail_over["result"]["fingerprint"] == direct_fingerprint("QU")


# -- live membership ---------------------------------------------------------

def test_add_shard_probes_health_and_moves_only_its_slice():
    sources = ["mem%d(a). mem%d(b)." % (i, i) for i in range(24)]

    async def scenario(router, servers):
        before = {}
        for index, source in enumerate(sources):
            route = await send(router.port, {
                "id": index, "op": "route", "source": source})
            before[source] = route["result"]["target"]
        # a probe failure must keep the ring unchanged
        refused = await send(router.port, {
            "id": 100, "op": "add-shard", "host": "127.0.0.1",
            "port": 1})
        ring_after_refusal = list(router.ring.nodes)
        joiner = AnalysisServer(port=0)
        await joiner.start()
        try:
            added = await send(router.port, {
                "id": 101, "op": "add-shard", "host": "127.0.0.1",
                "port": joiner.port})
            joiner_id = "127.0.0.1:%d" % joiner.port
            moved_to = []
            stayed = 0
            for source in sources:
                route = await send(router.port, {
                    "id": 102, "op": "route", "source": source})
                target = route["result"]["target"]
                if target != before[source]:
                    moved_to.append(target)
                else:
                    stayed += 1
            # the joiner actually serves its slice, bit-identically
            moved_source = next(s for s in sources
                                if before[s] != joiner_id
                                and router.ring.node_for(
                                    router._routing_hash(
                                        {"source": s})) == joiner_id)
            response = await send(router.port, {
                "id": 103, "op": "analyze", "source": moved_source,
                "query": [moved_source.split("(")[0], 1],
                "payload": False})
            return (refused, ring_after_refusal, added, joiner_id,
                    moved_to, stayed, response,
                    router.stats.shards_added)
        finally:
            await joiner.drain_and_close()

    (refused, ring_after_refusal, added, joiner_id, moved_to, stayed,
     response, adds) = run_cluster(scenario)
    assert not refused["ok"]
    assert refused["code"] == "shard-unavailable"
    assert len(ring_after_refusal) == 2  # bogus shard never joined
    assert added["ok"], added
    assert added["result"]["shards"] == 3
    assert moved_to and all(target == joiner_id for target in moved_to)
    assert stayed > 0  # only the joining slice moved
    assert response["ok"] and adds == 1


def test_remove_shard_drains_inflight_then_departs(monkeypatch):
    real = server_module._execute_spec

    def slow_execute(spec, program=None):
        time.sleep(0.4)
        return real(spec, program)

    monkeypatch.setattr(server_module, "_execute_spec", slow_execute)
    source = "leaving(a). leaving(b)."

    async def scenario(router, servers):
        owner = router.ring.preference(
            router._routing_hash({"source": source}))[0]
        inflight = asyncio.ensure_future(send(router.port, {
            "id": 1, "op": "analyze", "source": source,
            "query": ["leaving", 1], "payload": False}))
        await asyncio.sleep(0.1)  # the slow analysis is now on-shard
        removed = await send(router.port, {
            "id": 2, "op": "remove-shard", "shard": owner,
            "shutdown": False})
        completed = await inflight
        after = await send(router.port, {
            "id": 3, "op": "analyze", "source": source,
            "query": ["leaving", 1], "payload": False})
        last = list(router.shards)[0]
        refused = await send(router.port, {
            "id": 4, "op": "remove-shard", "shard": last})
        return (owner, removed, completed, after, refused,
                list(router.ring.nodes), router.stats.shards_removed)

    owner, removed, completed, after, refused, ring, removes = \
        run_cluster(scenario)
    assert removed["ok"], removed
    assert removed["result"]["drained"]  # in-flight finished first
    assert owner not in ring and len(ring) == 1
    assert completed["ok"], completed
    assert after["ok"] and after["result"]["fingerprint"] == \
        completed["result"]["fingerprint"]
    assert not refused["ok"] and "last shard" in refused["error"]
    assert removes == 1


# -- replicated writes -------------------------------------------------------

def test_replication_seeds_replica_memory_for_failover():
    """With --replicate 2 a fresh result lands in the replica's memory
    tier; killing the home shard then serves it as a memory hit — no
    recomputation, no disk."""

    async def scenario(router, servers):
        first = await send(router.port, {
            "id": 1, "op": "analyze", "benchmark": "QU",
            "payload": False})
        assert first["ok"] and not first["result"]["cached"]
        owner, owner_index = shard_owning(router, "QU")
        replica = servers[1 - owner_index]
        seeded = await wait_until(
            lambda: replica.cache.stats.seeds >= 1, timeout=5.0)
        await take_out(router, owner)
        second = await send(router.port, {
            "id": 2, "op": "analyze", "benchmark": "QU",
            "payload": False})
        return (first, seeded, second, replica.cache.stats,
                replica.stats.analyses_executed,
                router.stats.replications)

    first, seeded, second, cache_stats, replica_analyses, replications = \
        run_cluster(scenario, router_kwargs={"replicate": 2})
    assert seeded, "replication never reached the replica"
    assert replications >= 1
    assert second["ok"], second
    assert second["result"]["cached"]          # served, not recomputed
    assert second["result"]["fingerprint"] == \
        first["result"]["fingerprint"]
    assert replica_analyses == 0               # memory tier, no work
    assert cache_stats.memory_hits >= 1


def test_replication_skips_cached_results():
    """Only fresh computations replicate — a stream of warm hits must
    not generate seed traffic."""

    async def scenario(router, servers):
        for request_id in range(3):
            response = await send(router.port, {
                "id": request_id, "op": "analyze", "benchmark": "RE",
                "payload": False})
            assert response["ok"]
        await wait_until(
            lambda: router.stats.replications >= 1, timeout=2.0)
        return router.stats.replications, router.stats.replication_failures

    replications, failures = run_cluster(
        scenario, router_kwargs={"replicate": 2})
    assert replications == 1  # the first, fresh result — nothing else
    assert failures == 0


def test_router_forwards_cached_reads_undecoded(monkeypatch):
    """The replicate gate reads the shard's ``fresh`` marker: cached
    reads pass the router as bytes (no response is decoded), and every
    fresh analyze is replicated with its payload bytes spliced into
    the seed line, so the only responses the router decodes are the
    replicas' seed acknowledgements."""
    from repro.service import cluster as cluster_module
    decoded = []
    real_decode = cluster_module.decode_message

    def counting_decode(line):
        message = real_decode(line)
        if "op" not in message:  # a response, not a client request
            decoded.append(message)
        return message

    monkeypatch.setattr(cluster_module, "decode_message", counting_decode)

    async def scenario(router, servers):
        for name, want in (("QU", True), ("RE", False)):
            fresh = await send(router.port, {
                "id": 1, "op": "analyze", "benchmark": name,
                "payload": want})
            assert fresh["ok"] and not fresh["result"]["cached"]
        assert await wait_until(lambda: router.stats.replications >= 2)
        await wait_until(lambda: not router._replication_tasks)
        fresh_decodes = list(decoded)
        del decoded[:]
        for request_id in range(3):
            for name in ("QU", "RE"):
                hit = await send(router.port, {
                    "id": request_id, "op": "analyze",
                    "benchmark": name, "payload": True})
                assert hit["result"]["cached"], hit
                assert "payload" in hit["result"]
        executed = sum(server.stats.analyses_executed
                       for server in servers)
        return (fresh_decodes, list(decoded), router.stats.replications,
                executed)

    fresh_decodes, cached_decodes, replications, executed = run_cluster(
        scenario, router_kwargs={"replicate": 2})
    assert cached_decodes == []
    assert [message["result"]["seeded"] for message in fresh_decodes] \
        == [True, True]
    assert replications == executed == 2


# -- replica repair through replication ----------------------------------------

def test_seed_vs_invalidate_race_reseeds_the_replica():
    """``invalidate`` drops the seeded replica copy and re-analysis on
    the home reproduces the *same* content-addressed digest.  The
    result is fresh again, so the router pushes it again: the replica
    holds the digest once more, and a failover to it is a warm memory
    hit with no recomputation."""

    async def scenario(router, servers):
        first = await send(router.port, {"id": 1, "op": "analyze",
                                         "benchmark": "QU",
                                         "payload": False})
        assert first["ok"] and not first["result"]["cached"]
        digest = first["result"]["key"]
        owner, owner_index = shard_owning(router, "QU")
        replica = servers[1 - owner_index]
        assert await wait_until(lambda: replica.cache.stats.seeds >= 1)
        report = await send(router.port, {
            "id": 2, "op": "invalidate",
            "source": benchmark("QU").source})
        assert report["ok"] and report["result"]["invalidated"] >= 1
        assert digest not in replica.cache._memory
        again = await send(router.port, {"id": 3, "op": "analyze",
                                         "benchmark": "QU",
                                         "payload": False})
        assert again["ok"] and not again["result"]["cached"]
        assert again["result"]["key"] == digest  # same digest, by design
        reseeded = await wait_until(
            lambda: digest in replica.cache._memory, timeout=5.0)
        await take_out(router, owner)
        failover = await send(router.port, {"id": 4, "op": "analyze",
                                            "benchmark": "QU",
                                            "payload": False})
        return reseeded, failover, replica.stats.analyses_executed

    reseeded, failover, replica_analyses = run_cluster(
        scenario, router_kwargs={"replicate": 2})
    assert reseeded, "re-analysis did not re-seed the replica"
    assert failover["ok"], failover
    assert failover["result"]["cached"]        # warm memory again
    assert failover["result"]["fingerprint"] == direct_fingerprint("QU")
    assert replica_analyses == 0               # no recomputation


def test_failover_recompute_triggers_read_repair():
    """A failover that *recomputes* a result is fresh, so it
    replicates like any other: the serving replica re-pushes to the
    next live node of the preference list."""

    async def scenario(router, servers):
        first = await send(router.port, {"id": 1, "op": "analyze",
                                         "benchmark": "QU",
                                         "payload": False})
        assert first["ok"]
        preference = router.ring.preference(
            router._routing_hash({"benchmark": "QU"}))
        await wait_until(lambda: router.stats.replications >= 2)
        await send(router.port, {"id": 2, "op": "invalidate",
                                 "source": benchmark("QU").source})
        await take_out(router, preference[0])
        second = await send(router.port, {"id": 3, "op": "analyze",
                                          "benchmark": "QU",
                                          "payload": False})
        assert second["ok"] and not second["result"]["cached"]
        third = next(s for s in servers
                     if "127.0.0.1:%d" % s.port == preference[2])
        return await wait_until(
            lambda: second["result"]["key"] in third.cache._memory)

    reseeded = run_cluster(scenario, shards=3,
                           router_kwargs={"replicate": 3})
    assert reseeded, "the failover recompute was never re-pushed"


# -- durable membership journal ----------------------------------------------

def test_membership_journal_tolerates_garbage_and_torn_tail(tmp_path):
    path = str(tmp_path / "membership.journal")
    journal = MembershipJournal(path)
    journal.append({"event": "add-shard", "shard": "10.0.0.9:7871",
                    "host": "10.0.0.9", "port": 7871})
    journal.close()
    with open(path, "ab") as handle:
        handle.write(b"not json at all\n")
        handle.write(b'{"event": "remove-shard", "sh')  # torn append
    reopened = MembershipJournal(path)
    assert [e["event"] for e in reopened.replayed] == ["add-shard"]
    assert reopened.seq == 1
    reopened.append({"event": "remove-shard", "shard": "10.0.0.9:7871"})
    reopened.close()
    # the post-torn append starts a clean line and survives re-reading
    final = MembershipJournal(path)
    assert [e["event"] for e in final.replayed] == \
        ["add-shard", "remove-shard"]
    assert final.seq == 2


def test_journal_replays_membership_across_router_restart(tmp_path):
    """add-shard/remove-shard ops are durable: a restarted router
    replays them and comes back with the same ring — the supervision
    events in between are deliberately not replayed."""
    journal_path = str(tmp_path / "membership.journal")

    async def main():
        servers = [AnalysisServer(port=0) for _ in range(2)]
        for server in servers:
            await server.start()
        base = [("127.0.0.1", servers[0].port)]
        joiner_id = "127.0.0.1:%d" % servers[1].port

        router = ClusterRouter(base, port=0, health_interval=0.2,
                               journal_path=journal_path)
        await router.start()
        added = await send(router.port, {
            "id": 1, "op": "add-shard", "host": "127.0.0.1",
            "port": servers[1].port})
        await router.drain_and_close(shutdown_spawned=False)

        # restart #1: only the base shard on the command line, the
        # joiner comes back from the journal
        restarted = ClusterRouter(base, port=0, health_interval=0.2,
                                  journal_path=journal_path)
        await restarted.start()
        ring_after_restart = list(restarted.ring.nodes)
        replayed = restarted.journal_replayed
        info = await send(restarted.port, {"id": 2, "op": "router-info"})
        removed = await send(restarted.port, {
            "id": 3, "op": "remove-shard", "shard": joiner_id,
            "shutdown": False})
        await restarted.drain_and_close(shutdown_spawned=False)

        # restart #2: the remove is durable too
        final = ClusterRouter(base, port=0, health_interval=0.2,
                              journal_path=journal_path)
        ring_final = list(final.ring.nodes)
        await final.start()
        await final.drain_and_close(shutdown_spawned=False)
        for server in servers:
            await server.drain_and_close()
        return (added, joiner_id, ring_after_restart, replayed, info,
                removed, ring_final)

    (added, joiner_id, ring_after_restart, replayed, info, removed,
     ring_final) = asyncio.run(main())
    assert added["ok"], added
    assert joiner_id in ring_after_restart
    assert replayed == 1
    assert info["result"]["journal"]["replayed"] == 1
    assert info["result"]["journal"]["seq"] >= 1
    assert removed["ok"], removed
    assert joiner_id not in ring_final


def _churn_journal(path, shards=6, removed=2, noise=40):
    """A journal full of membership churn plus supervision noise:
    ``shards`` adds, the first ``removed`` of them removed again, and
    ``noise`` non-membership events interleaved."""
    journal = MembershipJournal(path)
    ids = []
    for index in range(shards):
        shard_id = "10.0.0.%d:7871" % (index + 1)
        ids.append(shard_id)
        journal.append({"event": "add-shard", "shard": shard_id,
                        "host": "10.0.0.%d" % (index + 1), "port": 7871})
        for _ in range(noise // shards):
            journal.append({"event": "shard-died", "shard": shard_id})
            journal.append({"event": "shard-restarted",
                            "shard": shard_id})
    for shard_id in ids[:removed]:
        journal.append({"event": "remove-shard", "shard": shard_id})
    journal.close()
    return ids[removed:]


def test_journal_compact_rewrites_to_snapshot_with_monotone_seq(tmp_path):
    path = str(tmp_path / "membership.journal")
    _churn_journal(path)
    journal = MembershipJournal(path)
    seq_before = journal.seq
    entries_before = len(journal.replayed)
    snapshot = [{"event": "add-shard", "shard": "10.0.0.9:7871",
                 "host": "10.0.0.9", "port": 7871}]
    dropped = journal.compact(snapshot)
    assert dropped == entries_before - 1
    assert journal.seq == seq_before + 1  # continues, never rewinds
    assert journal.compactions == 1
    # an append after compaction lands on the compacted file
    journal.append({"event": "remove-shard", "shard": "10.0.0.9:7871"})
    journal.close()
    reread = MembershipJournal(path)
    assert [e["event"] for e in reread.replayed] == \
        ["add-shard", "remove-shard"]
    assert reread.seq == seq_before + 2


def test_router_compacts_oversized_journal_to_identical_ring(tmp_path):
    """The satellite contract: replaying the pre-compaction and the
    post-compaction journal builds the identical ring, and the
    compacted file is a fraction of the churned one's size."""
    path = str(tmp_path / "membership.journal")
    live = _churn_journal(path)
    size_before = MembershipJournal(path).size()

    before = ClusterRouter([], journal_path=path,
                           journal_compact_bytes=10 ** 9)  # no compaction
    assert sorted(before.ring.nodes) == sorted(live)
    assert before.journal.compactions == 0

    compacting = ClusterRouter([], journal_path=path,
                               journal_compact_bytes=1)
    assert compacting.journal.compactions == 1
    assert sorted(compacting.ring.nodes) == sorted(before.ring.nodes)
    assert compacting.journal.size() < size_before
    assert len(compacting.journal.replayed) == len(live)

    # a third router replays the *compacted* journal: identical ring,
    # identical preference lists, sequence still moving forward
    after = ClusterRouter([], journal_path=path,
                          journal_compact_bytes=10 ** 9)
    assert sorted(after.ring.nodes) == sorted(before.ring.nodes)
    for key in KEYS[:50]:
        assert after.ring.preference(key) == before.ring.preference(key)
    assert after.journal.seq >= compacting.journal.seq
    assert after.journal.compactions == 0


# -- standby routers ---------------------------------------------------------

def test_standby_syncs_membership_refuses_writes_and_promotes():
    """The full standby lifecycle in one loop: mirror the primary's
    ring (including later joins), serve reads all along, refuse
    membership writes while the primary answers, then promote after
    the primary dies and accept them."""

    async def main():
        servers = [AnalysisServer(port=0) for _ in range(2)]
        for server in servers:
            await server.start()
        addresses = [("127.0.0.1", server.port) for server in servers]
        primary = ClusterRouter(addresses, port=0, health_interval=0.05,
                                down_after=2)
        await primary.start()
        standby = ClusterRouter([], port=0, health_interval=0.05,
                                down_after=3,
                                sync_from=("127.0.0.1", primary.port))
        await standby.start()
        joiner = AnalysisServer(port=0)
        await joiner.start()
        try:
            synced = await wait_until(
                lambda: len(standby.ring.nodes) == 2)
            refused = await send(standby.port, {
                "id": 1, "op": "add-shard", "host": "127.0.0.1",
                "port": joiner.port})
            added = await send(primary.port, {
                "id": 2, "op": "add-shard", "host": "127.0.0.1",
                "port": joiner.port})
            propagated = await wait_until(
                lambda: len(standby.ring.nodes) == 3)
            served = await send(standby.port, {
                "id": 3, "op": "analyze", "benchmark": "QU",
                "payload": False})
            membership = await send(standby.port,
                                    {"id": 4, "op": "sync-membership"})
            await primary.drain_and_close(shutdown_spawned=False)
            promoted = await wait_until(
                lambda: not standby.primary_reachable)
            accepted = await send(standby.port, {
                "id": 5, "op": "remove-shard",
                "shard": "127.0.0.1:%d" % joiner.port,
                "shutdown": False})
            info = await send(standby.port, {"id": 6,
                                             "op": "router-info"})
            return (synced, refused, added, propagated, served,
                    membership, promoted, accepted, info)
        finally:
            await joiner.drain_and_close()
            await standby.drain_and_close(shutdown_spawned=False)
            for server in servers:
                await server.drain_and_close()

    (synced, refused, added, propagated, served, membership, promoted,
     accepted, info) = asyncio.run(main())
    assert synced, "standby never mirrored the primary's ring"
    assert not refused["ok"] and refused["code"] == "standby"
    assert "standby" in refused["error"]
    assert added["ok"], added
    assert propagated, "add-shard on the primary never reached standby"
    assert served["ok"]
    assert served["result"]["fingerprint"] == direct_fingerprint("QU")
    assert membership["ok"]
    assert membership["result"]["role"] == "standby"
    assert len(membership["result"]["shards"]) == 3
    assert promoted, "standby never promoted after primary death"
    assert accepted["ok"], accepted
    # a promoted standby *is* the acting primary
    assert info["result"]["role"] == "primary"
    assert info["result"]["primary_reachable"] is False
    assert info["result"]["sync_pulls"] >= 1
    events = [entry["event"] for entry in info["result"]["membership_log"]]
    assert "sync-add" in events and "standby-promoted" in events


# -- fleet spec & log rotation -----------------------------------------------

def test_load_fleet_normalizes_and_validates(tmp_path):
    import json as json_module
    path = tmp_path / "fleet.json"
    path.write_text(json_module.dumps({
        "routers": ["10.0.0.1:7870", {"host": "10.0.0.2", "port": 7870}],
        "shards": ["10.0.0.3:7871"],
        "replicate": 2,
        "note": "passes through untouched",
    }))
    fleet = load_fleet(str(path))
    assert fleet["routers"] == [("10.0.0.1", 7870), ("10.0.0.2", 7870)]
    assert fleet["shards"] == [("10.0.0.3", 7871)]
    assert fleet["replicate"] == 2
    assert fleet["note"] == "passes through untouched"

    from repro.service.client import fleet_endpoints
    assert fleet_endpoints(str(path)) == \
        [("10.0.0.1", 7870), ("10.0.0.2", 7870)]

    bad = tmp_path / "bad.json"
    bad.write_text(json_module.dumps({"shards": ["no-port-here"]}))
    with pytest.raises(ValueError):
        load_fleet(str(bad))
    bad.write_text(json_module.dumps(["not", "an", "object"]))
    with pytest.raises(ValueError):
        load_fleet(str(bad))
    routerless = tmp_path / "routerless.json"
    routerless.write_text(json_module.dumps({"shards": ["h:1"]}))
    with pytest.raises(ValueError):
        fleet_endpoints(str(routerless))


def test_rotate_log_caps_and_keeps_one_generation(tmp_path):
    from repro.service.client import _rotate_log
    log = tmp_path / "shard.log"
    log.write_bytes(b"x" * 100)
    _rotate_log(str(log), 1000)           # under the cap: untouched
    assert log.read_bytes() == b"x" * 100
    _rotate_log(str(log), 100)            # at the cap: rotated to .1
    assert not log.exists()
    assert (tmp_path / "shard.log.1").read_bytes() == b"x" * 100
    log.write_bytes(b"y" * 200)
    _rotate_log(str(log), 100)            # .1 is replaced, not stacked
    assert (tmp_path / "shard.log.1").read_bytes() == b"y" * 200
    log.write_bytes(b"z" * 500)
    _rotate_log(str(log), 0)              # 0 disables rotation
    assert log.read_bytes() == b"z" * 500
    _rotate_log(str(tmp_path / "absent.log"), 10)  # missing: no error
