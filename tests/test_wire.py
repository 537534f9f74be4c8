"""Encode-once result payloads (:mod:`repro.service.wire`).

A fresh result's bytes and fingerprint are assembled once, in the
executor that ran the analysis, from per-substitution canonical texts
memoized on the interned substitution.  The contract pinned here
(``json_dumps`` in a test name means the canonical ``json.dumps`` of
``serialize.canonical_json``: sorted keys, no whitespace):

* the bytes equal ``canonical_json(payload)`` — the CLI's ``--json``
  form — and the fingerprint equals both ``payload_fingerprint`` and
  ``result_fingerprint``, on every benchprog (CHK as a check payload),
  on random programs and on the baseline domain, on the native and
  python kernel tiers, with the text memo cold or warm;
* every consumer uses that one encoding: the served response, the
  memory tier, the ``--cache-dir`` record, a ``seed``-ed replica and
  the fingerprint; a pool worker's result carries it across the
  process boundary; and a payload that arrives as a plain dict still
  gets correct bytes;
* the memo holds one text per domain did, lives on the substitution
  and dies with it, and repeated edits do not grow it.
"""

import gc
import json
import os
import re
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings

from repro import analyze
from repro.assertions import check_analysis
from repro.benchprogs import BENCHMARKS, benchmark
from repro.domains.leaf import TypeLeafDomain
from repro.domains.pattern import (PAT_BOTTOM, AbstractSubst, PatNode,
                                   intern_subst)
from repro.fixpoint.engine import AnalysisConfig
from repro.service import server as server_module
from repro.service.batch import Job, WorkerPool, _execute_spec, run_batch
from repro.service.cache import ResultCache
from repro.service.serialize import (FORMAT_VERSION, canonical_json,
                                     encode_check,
                                     encode_result, encode_subst,
                                     payload_fingerprint,
                                     result_fingerprint, subst_json)
from repro.service.server import AnalysisServer
from repro.service.wire import EncodedPayload, encode_payload
from repro.typegraph import g_list_of, g_int

from test_cluster import run_cluster, shard_owning, wait_until
from test_differential_properties import programs
from test_serialize import LEAF_TABLE_BREAKAGES, break_leaf_table
from test_server import run_scenario, send, send_raw
from test_warm_heap import kernel_tier  # noqa: F401  (fixture)


def _forget_texts(result):
    for entry in result.entries:
        for subst in (entry.beta_in, entry.beta_out):
            if subst is not PAT_BOTTOM:
                subst.text_memo = None


def _assert_encodes(result, payload):
    """Cold memo, then warm: bytes and fingerprint match the plain
    encoders each time."""
    for cold in (True, False):
        if cold:
            _forget_texts(result)
        encoded = encode_payload(result, payload)
        assert isinstance(encoded, EncodedPayload)
        assert encoded == payload
        assert encoded.wire == canonical_json(payload).encode("utf-8")
        assert encoded.fingerprint == payload_fingerprint(payload)
        assert encoded.fingerprint == result_fingerprint(result)
        # a payload wrapped from the plain dict encodes the same
        plain = EncodedPayload(payload)
        assert plain.wire == encoded.wire
        assert plain.fingerprint == encoded.fingerprint


def _analyzed(name):
    bp = benchmark(name)
    if name != "CHK":
        analysis = analyze(bp.source, bp.query,
                           input_types=bp.input_types)
        return analysis.result, encode_result(analysis.result)
    analysis = analyze(bp.source, bp.query, input_types=bp.input_types,
                       config=AnalysisConfig(keep_deps=True))
    payload = encode_result(analysis.result)
    report, slices = check_analysis(analysis)
    payload["check"] = encode_check(report, slices)
    assert payload["check"]["slices"]
    return analysis.result, payload


@pytest.mark.parametrize("tier", ["native", "python"])
def test_every_benchprog_encodes_like_json_dumps(kernel_tier, tier):
    kernel_tier(tier)
    for name in BENCHMARKS:
        _assert_encodes(*_analyzed(name))


@given(programs())
@settings(max_examples=40, deadline=None)
def test_random_programs_encode_like_json_dumps(program):
    source, query = program
    result = analyze(source, query).result
    _assert_encodes(result, encode_result(result))


def test_baseline_payload_encodes_like_json_dumps():
    bp = benchmark("QU")
    result = analyze(bp.source, bp.query, baseline=True).result
    _assert_encodes(result, encode_result(result))


def test_execute_spec_returns_the_encoding():
    spec = AnalysisServer()._check_spec_of({"benchmark": "CHK"})[0]
    _, payload, _ = _execute_spec(spec)
    assert "check" in payload
    assert payload.wire == canonical_json(payload).encode("utf-8")
    assert payload.fingerprint == payload_fingerprint(payload)


def test_pool_worker_result_carries_the_bytes():
    spec = AnalysisServer()._spec_of({"benchmark": "QU"})[0]
    with WorkerPool(1) as pool:
        _, payload, _ = pool.submit_spec(spec).result(timeout=120)
    assert isinstance(payload, EncodedPayload)
    assert payload.wire == canonical_json(payload).encode("utf-8")
    assert payload.fingerprint == payload_fingerprint(payload)


def test_disk_record_is_json_dumps_of_the_record(tmp_path):
    bp = benchmark("QU")
    job = Job(bp.name, bp.source, bp.query, bp.input_types)
    cache = ResultCache(tmp_path)
    fresh = run_batch([job], cache).results[0]
    assert isinstance(fresh.payload, EncodedPayload)
    key = job.key()
    with open(cache._entry_path(key), "rb") as handle:
        written = handle.read()
    plain = dict(fresh.payload)
    record = {"key": key.to_obj(), "payload": plain}
    assert written == canonical_json(record).encode("utf-8")
    # the plain-dict path writes the same bytes
    other = ResultCache(tmp_path / "plain")
    other.put(key, plain)
    with open(other._entry_path(key), "rb") as handle:
        assert handle.read() == written
    # and a second process reads it back as a hit, with the same bytes
    hit = ResultCache(tmp_path).get(key)
    assert isinstance(hit, EncodedPayload)
    assert hit == plain and hit.wire == fresh.payload.wire


def test_record_in_the_older_spaced_form_still_decodes(tmp_path):
    """A record of the current format (with its leaf table) written in
    the spaced ``json.dumps`` form still hits, with the canonical
    bytes and fingerprint of a fresh result."""
    bp = benchmark("QU")
    job = Job(bp.name, bp.source, bp.query, bp.input_types)
    fresh = run_batch([job]).results[0].payload
    assert fresh["version"] == FORMAT_VERSION and fresh["leaves"]
    cache = ResultCache(tmp_path)
    key = job.key()
    os.makedirs(os.path.dirname(cache._entry_path(key)))
    with open(cache._entry_path(key), "w", encoding="utf-8") as handle:
        json.dump({"key": key.to_obj(), "payload": dict(fresh)}, handle)
    hit = cache.get(key)
    assert hit.wire == fresh.wire
    assert hit.fingerprint == fresh.fingerprint


# -- the served path ----------------------------------------------------------

def _payload_tail(line):
    """The payload a framed analyze line ends with, checked to travel
    as its canonical bytes."""
    payload = json.loads(line)["result"]["payload"]
    tail = b'"payload": ' + canonical_json(payload).encode("utf-8") \
        + b"}}\n"
    assert line.endswith(tail)
    return payload


def _masked(text):
    """``text`` with the stats that depend on the process, not on the
    workload, blanked: the timing and the counters of the warm
    operation caches and arena."""
    return re.sub(r'"(arena_compiles|cpu_time|opcache_hits|opcache_misses)"'
                  r':[-+.eE0-9]+', r'"\1":0', text)


def test_served_fresh_and_hit_lines_carry_identical_bytes(tmp_path):
    cache = ResultCache(tmp_path)
    request = {"op": "analyze", "benchmark": "QU"}

    async def scenario(server):
        fresh = await send_raw(server, dict(request, id=1))
        hit = await send_raw(server, dict(request, id=1))
        return fresh, hit

    fresh, hit = run_scenario(scenario, cache=cache)
    fresh_result = json.loads(fresh)["result"]
    hit_result = json.loads(hit)["result"]
    assert not fresh_result["cached"] and hit_result["cached"]
    payload = _payload_tail(fresh)
    assert _payload_tail(hit) == payload
    assert fresh.split(b'"payload": ')[1] == hit.split(b'"payload": ')[1]
    assert fresh_result["fingerprint"] == hit_result["fingerprint"] \
        == payload_fingerprint(payload)


def _cli_env():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=src)


def test_every_path_serves_the_cli_result_bytes(tmp_path):
    """One workload served fresh, as a memory hit, as a disk hit in a
    new cache and from a replica the router seeded carries one payload
    text, and it is the ``"result"`` text ``repro FILE QUERY --json``
    prints (up to the stats a warm process counts differently)."""
    bp = benchmark("QU")
    request = {"op": "analyze", "benchmark": "QU", "id": 1}

    async def fresh_then_hit(server):
        return [await send_raw(server, request) for _ in range(2)]

    async def disk_hit(server):
        line = await send_raw(server, request)
        assert server.cache.stats.disk_hits == 1
        return line

    lines = run_scenario(fresh_then_hit, cache=ResultCache(tmp_path))
    lines.append(run_scenario(disk_hit, cache=ResultCache(tmp_path)))

    async def seeded(router, servers):
        # a fresh result through the router, then the replica the
        # router pushed it to, read directly
        fresh = await send_raw(router, request)
        replica = servers[1 - shard_owning(router, "QU")[1]]
        assert await wait_until(lambda: replica.cache.stats.seeds == 1)
        line = await send_raw(replica, request)
        assert replica.stats.analyses_executed == 0
        return fresh, line

    routed, replicated = run_cluster(seeded,
                                     router_kwargs={"replicate": 2})
    lines.append(replicated)
    results = [json.loads(line)["result"] for line in lines]
    assert [r["cached"] for r in results] == [False, True, True, True]
    assert not json.loads(routed)["result"]["cached"]
    # each line ends in its payload's canonical bytes; the shard's own
    # lines carry one payload, and the replica the router's
    payload = _payload_tail(lines[0])
    assert all(_payload_tail(line) == payload for line in lines[1:3])
    assert _payload_tail(replicated) == _payload_tail(routed)
    assert len({r["fingerprint"] for r in results}) == 1
    served = _masked(canonical_json(payload))
    assert _masked(canonical_json(_payload_tail(replicated))) == served

    source = tmp_path / "qu.pl"
    source.write_text(bp.source)
    cli = subprocess.run(
        [sys.executable, "-m", "repro", str(source), "queens/2", "--json"],
        env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert cli.returncode == 0, cli.stderr
    assert '"result":%s,' % served in _masked(cli.stdout)


def test_plain_dict_from_the_executor_gets_correct_bytes(monkeypatch):
    real = server_module._execute_spec

    def plain(spec, program=None):
        name, payload, seconds = real(spec, program)
        return name, dict(payload, stats=dict(payload["stats"],
                                              marker=True)), seconds

    monkeypatch.setattr(server_module, "_execute_spec", plain)
    request = {"op": "analyze", "benchmark": "AR", "id": 7}

    async def scenario(server):
        return [await send_raw(server, request) for _ in range(2)]

    for line in run_scenario(scenario):
        payload = _payload_tail(line)
        assert payload["stats"]["marker"] is True
        assert json.loads(line)["result"]["fingerprint"] == \
            payload_fingerprint(payload)


def _spliced(line, payload):
    """``payload``'s canonical bytes, checked to sit in ``line`` as a
    spliced ``"payload"`` field."""
    wire = canonical_json(payload).encode("utf-8")
    assert b'"payload": ' + wire + b"}" in line
    return wire


def test_batch_check_and_slice_splice_the_stored_payload_bytes():
    """``batch``, ``check`` and ``slice`` with ``"payload": true`` carry
    the cached payload's canonical bytes, as ``analyze`` does."""

    async def scenario(server):
        analyze = await send_raw(server, {"op": "analyze", "id": 1,
                                          "benchmark": "QU"})
        batch = await send_raw(server, {"op": "batch", "id": 2,
                                        "benchmarks": ["QU", "AR"],
                                        "payload": True})
        checks = [await send_raw(server, {"op": op, "id": 3,
                                          "benchmark": "CHK",
                                          "payload": True})
                  for op in ("check", "slice")]
        stored = [payload.wire for _, payload
                  in server.cache._memory.values() if "check" in payload]
        return analyze, batch, checks, stored

    analyze, batch, checks, stored = run_scenario(scenario)
    qu = _payload_tail(analyze)
    jobs = json.loads(batch)["result"]["jobs"]
    assert [job["name"] for job in jobs] == ["QU", "AR"]
    assert _spliced(batch, jobs[0]["payload"]) == \
        canonical_json(qu).encode("utf-8")
    _spliced(batch, jobs[1]["payload"])
    results = [json.loads(line)["result"] for line in checks]
    assert results[1]["cached"] and results[1]["slices"]
    assert [_payload_tail(line) for line in checks] == \
        [results[0]["payload"]] * 2
    assert [canonical_json(results[0]["payload"]).encode("utf-8")] == stored


@pytest.mark.parametrize("breakage", LEAF_TABLE_BREAKAGES)
def test_seed_of_a_broken_leaf_table_is_a_bad_request(breakage):
    """A ``seed`` whose leaf table is broken is refused with
    ``bad-request``, stores nothing, and the shard keeps serving."""
    payload = _payload_tail(run_scenario(
        lambda server: send_raw(server, {"op": "analyze", "id": 1,
                                         "benchmark": "QU"})))

    async def scenario(server):
        refused = await send(server, {
            "op": "seed", "benchmark": "QU",
            "payload": break_leaf_table(payload, breakage)})
        served = await send(server, {"op": "analyze", "benchmark": "QU",
                                     "payload": False})
        return refused, served, server.cache.stats.seeds

    refused, served, seeds = run_scenario(scenario)
    assert not refused["ok"] and refused["code"] == "bad-request", refused
    assert "Traceback" not in refused["error"]
    assert seeds == 0
    assert served["ok"] and not served["result"]["cached"]


# -- the memo's lifetime ------------------------------------------------------

def _unique_subst():
    """An interned substitution no other test or analysis shares."""
    leaf = PatNode(value=g_list_of(g_list_of(g_list_of(g_int()))))
    name = "wire_memo_probe_%d" % id(leaf)
    return intern_subst(AbstractSubst(1, (0,), (
        PatNode(name, False, (1,)), leaf)))


def test_memo_dies_with_its_substitution():
    domain = TypeLeafDomain()
    subst = _unique_subst()
    text = subst_json(subst, domain)
    assert list(subst.text_memo) == [domain.did]
    assert subst.text_memo[domain.did][0] is text
    assert subst_json(subst, domain) is text
    ref = weakref.ref(subst)
    del subst
    gc.collect()
    assert ref() is None
    # nothing process-wide kept the text: only the local name does
    assert sys.getrefcount(text) == 2


def test_bottom_and_non_interned_substs_are_not_memoized():
    domain = TypeLeafDomain()
    assert subst_json(PAT_BOTTOM, domain) == '"bottom"'
    loose = AbstractSubst(1, (0,), (PatNode(value=g_int()),))
    assert not loose.interned
    assert subst_json(loose, domain) == \
        canonical_json(encode_subst(loose, domain))
    assert loose.text_memo is None


def test_type_database_domains_do_not_memoize():
    domain = TypeLeafDomain(type_database=[g_list_of(g_int())])
    assert not domain.shared_did
    subst = _unique_subst()
    subst_json(subst, domain)
    assert subst.text_memo is None


def test_repeated_edits_do_not_grow_the_memo():
    """Every edit analyses under a fresh domain instance of one
    configuration, so no substitution's memo gains a line after the
    edit that first encoded it."""
    bp = benchmark("QU")
    sizes = {}
    substs = []
    for edit in range(6):
        source = bp.source + "\nwire_edit%d(a).\n" % edit
        result = analyze(source, bp.query,
                         input_types=bp.input_types).result
        encode_payload(result, encode_result(result))
        for entry in result.entries:
            for subst in (entry.beta_in, entry.beta_out):
                if subst is not PAT_BOTTOM:
                    substs.append(subst)
                    assert isinstance(
                        subst.text_memo[result.domain.did], tuple)
                    size = sizes.setdefault(id(subst),
                                            len(subst.text_memo))
                    assert len(subst.text_memo) == size
    assert len(sizes) < len(substs)  # later edits met earlier substs


def test_the_one_shot_cli_does_not_import_the_module(tmp_path):
    source = tmp_path / "prog.pl"
    source.write_text("p(a).\n")
    code = ("import sys\n"
            "from repro.__main__ import main\n"
            "assert main([%r, 'p/1', '--json']) == 0\n"
            "assert 'repro.service.wire' not in sys.modules\n"
            % str(source))
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
