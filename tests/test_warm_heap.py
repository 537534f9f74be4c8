"""A warm process stays warm.

Two mechanisms keep a long-lived server's memo tables useful and its
heap cheap to collect:

* **Domain identity is configuration.**  ``LeafDomain.did`` comes
  from a process-wide registry, so every analysis with the same leaf
  domain configuration keys the pattern-level memos (``subst_join``,
  ``subst_widen``, ``subst_le``, the per-substitution collapse maps)
  identically.  A second pass over the same programs then finds every
  pattern-level result already computed.
* **The heap is settled after each fresh analysis.**  The executor
  that ran it collects the cyclic garbage it left and freezes the
  survivors out of the collector's scan set; frozen objects still die
  by refcount, so memory-tier eviction still frees payloads.
"""

import asyncio
import gc
import json
import os
import random
import sys
import threading
import weakref

import pytest

from repro import analyze
from repro.benchprogs import benchmark
from repro.domains.leaf import (DepthBoundLeafDomain, TrivialLeafDomain,
                                TypeLeafDomain, domain_from_descriptor)
from repro.service import server as server_module
from repro.service.batch import WorkerPool, _execute_spec, _settled
from repro.service.cache import ResultCache
from repro.service.serialize import payload_fingerprint
from repro.service.server import AnalysisServer
from repro.typegraph import arena, g_any, g_list_of, opcache

TABLE1 = ("KA", "QU", "PR", "PE", "CS", "DS", "PG", "RE", "BR", "PL")

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "perfbench", "oracle.json")) as _handle:
    ORACLE = json.load(_handle)["programs"]


# -- domain identity -----------------------------------------------------------

def test_equal_configurations_share_a_did():
    assert TypeLeafDomain().did == TypeLeafDomain(None).did
    assert TypeLeafDomain(5).did == TypeLeafDomain(5).did
    assert DepthBoundLeafDomain(2, 5).did == DepthBoundLeafDomain(2, 5).did
    assert TrivialLeafDomain().did == TrivialLeafDomain().did
    for domain in (TypeLeafDomain(3), DepthBoundLeafDomain(2),
                   TrivialLeafDomain()):
        assert domain_from_descriptor(domain.descriptor()).did == domain.did


def test_type_database_domains_take_fresh_dids():
    # a client-supplied database must not become a permanent registry
    # key, so each such domain keeps its own id
    first = TypeLeafDomain(None, [g_list_of(g_any())])
    second = TypeLeafDomain(None, [g_list_of(g_any())])
    assert first.did != second.did
    assert first.did != TypeLeafDomain().did


def test_different_configurations_never_share_a_did():
    domains = [
        TypeLeafDomain(), TypeLeafDomain(2), TypeLeafDomain(5),
        DepthBoundLeafDomain(1), DepthBoundLeafDomain(2),
        DepthBoundLeafDomain(1, 5), TrivialLeafDomain(),
        TypeLeafDomain(None, [g_list_of(g_any())]),
        TypeLeafDomain(None, [g_any()]),
    ]
    dids = [domain.did for domain in domains]
    assert len(set(dids)) == len(dids)


def test_concurrent_construction_gives_each_configuration_one_did():
    # widths no other test uses, so every configuration registers here
    widths = list(range(70000, 70064))
    barrier = threading.Barrier(8)
    seen = []

    def build(seed):
        order = widths[:]
        random.Random(seed).shuffle(order)
        barrier.wait()
        seen.append([(width, TypeLeafDomain(width).did)
                     for width in order])

    threads = [threading.Thread(target=build, args=(seed,))
               for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    did_of = {}
    for pairs in seen:
        for width, did in pairs:
            assert did_of.setdefault(width, did) == did
    assert len(set(did_of.values())) == len(widths)


# -- warm reuse ----------------------------------------------------------------

@pytest.fixture
def kernel_tier():
    """Switch the kernel tier for one test, with the op caches empty,
    and put the requested tier back afterwards."""
    requested = arena.kernel_status()["requested"]

    def switch(tier):
        if tier not in arena.available_kernels():
            pytest.skip("%s tier unavailable" % tier)
        arena.configure(kernel=tier)
        opcache.clear()

    yield switch
    arena.configure(kernel=requested)


def _memo_sizes():
    sizes = {name: table["size"] for name, table in opcache.stats().items()
             if name.startswith("subst_")}
    native = arena.NATIVE.memo_stats() if arena.NATIVE is not None else None
    return sizes, native


@pytest.mark.parametrize("tier", ["native", "python"])
def test_second_pass_reuses_every_pattern_memo(kernel_tier, tier):
    kernel_tier(tier)
    server = AnalysisServer()
    specs = [server._spec_of({"benchmark": name})[0] for name in TABLE1]
    check_spec = server._check_spec_of({"benchmark": "CHK"})[0]
    sizes = []
    for _ in range(3):
        for spec in specs:
            _, payload, _ = _execute_spec(spec)
            want = ORACLE[spec["name"]]
            assert payload_fingerprint(payload) == \
                want["fingerprint"], spec["name"]
            for field in ("procedure_iterations", "clause_iterations"):
                assert payload["stats"][field] == want[field], \
                    (spec["name"], field)
        _, payload, _ = _execute_spec(check_spec)
        statuses = [verdict["status"]
                    for verdict in payload["check"]["verdicts"]]
        assert statuses.count("violated") == 1
        sizes.append(_memo_sizes())
    assert sizes[1] == sizes[2]


def test_no_type_domain_outlives_its_analysis(kernel_tier):
    kernel_tier("python")
    refs = []
    for name in ("QU", "PG", "AR", "CS"):
        bp = benchmark(name)
        analysis = analyze(bp.source, bp.query, input_types=bp.input_types)
        refs.append(weakref.ref(analysis.domain))
        del analysis
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


# -- the settled heap ----------------------------------------------------------

@pytest.fixture
def unfrozen_after():
    """Hand the test process's heap back to the collector afterwards."""
    yield
    gc.unfreeze()


def _fresh_qu(k):
    bp = benchmark("QU")
    return {"op": "analyze", "source": bp.source + "\nuncalled_%d(a).\n" % k,
            "query": list(bp.query), "payload": False}


def _containers(obj):
    count, stack = 0, [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            count += 1
            stack.extend(item.values())
        elif isinstance(item, list):
            count += 1
            stack.extend(item)
    return count


def test_frozen_payloads_are_still_freed_by_eviction(unfrozen_after):
    async def scenario():
        server = AnalysisServer(port=0,
                                cache=ResultCache(max_memory_entries=4))
        await server.start()
        counts = []
        try:
            for k in range(200):
                line = json.dumps(_fresh_qu(k)).encode()
                response = json.loads(await server._dispatch(line))
                assert response["ok"] and not response["result"]["cached"]
                counts.append(gc.get_freeze_count())
            payload = server.cache.get_memory(
                server._spec_of(_fresh_qu(199))[1])
        finally:
            await server.drain_and_close()
        return counts, payload

    counts, payload = asyncio.run(scenario())
    assert counts[0] > 0
    # Without eviction freeing frozen payloads, every request would
    # pin one more payload; what remains is per-request bookkeeping
    # (the request-spec memo) that is far smaller.
    per_request = (counts[199] - counts[99]) / 100
    assert per_request < _containers(payload) / 20, (per_request, counts)


def test_a_cycle_left_by_an_analysis_is_collected_not_frozen(
        monkeypatch, unfrozen_after):
    real = server_module._execute_spec
    refs = []

    class Node:
        pass

    def leaky(spec, program=None):
        node = Node()
        node.self = node
        refs.append(weakref.ref(node))
        return real(spec, program)

    monkeypatch.setattr(server_module, "_execute_spec", leaky)

    async def scenario():
        server = AnalysisServer(port=0)
        await server.start()
        try:
            line = json.dumps(_fresh_qu(1000)).encode()
            response = json.loads(await server._dispatch(line))
        finally:
            await server.drain_and_close()
        return response

    was_enabled = gc.isenabled()
    gc.disable()  # only the executor's own collection may reclaim it
    try:
        response = asyncio.run(scenario())
    finally:
        if was_enabled:
            gc.enable()
    assert response["ok"]
    assert len(refs) == 1 and refs[0]() is None
    assert gc.get_freeze_count() > 0


def test_a_failed_analysis_is_not_frozen(monkeypatch, unfrozen_after):
    refs = []

    class Node:
        pass

    def failing(spec, program=None):
        node = Node()  # reachable from the error's traceback
        refs.append(weakref.ref(node))
        raise RuntimeError("analysis failed")

    monkeypatch.setattr(server_module, "_execute_spec", failing)

    async def scenario():
        server = AnalysisServer(port=0)
        await server.start()
        try:
            line = json.dumps(_fresh_qu(2000)).encode()
            response = await server._dispatch(line)  # an error envelope
        finally:
            await server.drain_and_close()
        return response

    gc.collect()
    gc.unfreeze()
    response = asyncio.run(scenario())
    assert not response["ok"]
    assert response["code"] == "analysis-error"
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    assert gc.get_freeze_count() == 0


def test_settled_runs_no_collection_inside_the_analysis(unfrozen_after):
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    def allocating():
        # far past every generation's threshold
        return [[index] for index in range(200000)]

    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        result = _settled(allocating)
        during = len(collections)
    finally:
        gc.callbacks.remove(record)
    assert len(result) == 200000
    assert during == 1, collections  # the settling collection only
    assert gc.isenabled()


def test_the_collector_is_back_on_after_an_analysis_raises():
    def failing():
        raise RuntimeError("analysis failed")

    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        _settled(failing)
    assert gc.isenabled()
    gc.disable()
    try:  # a paused collector stays paused
        with pytest.raises(RuntimeError):
            _settled(failing)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_serial_batches_settle_their_heap(unfrozen_after):
    from repro.service.batch import jobs_from_benchmarks, run_batch
    gc.unfreeze()
    report = run_batch(jobs_from_benchmarks(["QU"]))
    assert report.misses == 1
    assert gc.get_freeze_count() > 0


def test_pool_workers_settle_their_heap():
    spec = AnalysisServer()._spec_of({"benchmark": "QU"})[0]
    with WorkerPool(1) as pool:
        name, payload, _ = pool.submit_spec(spec).result(timeout=120)
        frozen = pool.executor.submit(gc.get_freeze_count).result(
            timeout=60)
    assert name == "QU"
    assert payload_fingerprint(payload) == ORACLE["QU"]["fingerprint"]
    assert frozen > 0
