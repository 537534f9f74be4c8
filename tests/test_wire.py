"""Encode-once result payloads (:mod:`repro.service.wire`).

A fresh result's JSON bytes and fingerprint are assembled once, in the
executor that ran the analysis, from per-substitution texts memoized
on the interned substitution.  The contract pinned here:

* the bytes equal ``json.dumps(payload)`` and the fingerprint equals
  both ``payload_fingerprint`` and ``result_fingerprint`` — on every
  benchprog (CHK as a check payload) and on random programs, on the
  native and python kernel tiers, with the text memo cold or warm;
* every consumer uses that one encoding: the served response, the
  memory tier, the ``--cache-dir`` record and the fingerprint memo; a
  pool worker's result carries it across the process boundary; and a
  payload that arrives as a plain dict still gets correct bytes;
* the memo lives on the substitution and dies with it, and repeated
  edits do not grow it.
"""

import gc
import json
import os
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
from repro.service.serialize import (encode_check, encode_result,
                                     payload_fingerprint,
                                     result_fingerprint)
from repro.service.server import AnalysisServer
from repro.service.wire import EncodedPayload, encode_payload, subst_texts
from repro.typegraph import g_list_of, g_int

from test_differential_properties import programs
from test_server import run_scenario, send_raw
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
        assert encoded.wire == json.dumps(payload).encode("utf-8")
        assert encoded.fingerprint == payload_fingerprint(payload)
        assert encoded.fingerprint == result_fingerprint(result)


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
    assert payload.wire == json.dumps(payload).encode("utf-8")
    assert payload.fingerprint == payload_fingerprint(payload)


def test_pool_worker_result_carries_the_bytes():
    spec = AnalysisServer()._spec_of({"benchmark": "QU"})[0]
    with WorkerPool(1) as pool:
        _, payload, _ = pool.submit_spec(spec).result(timeout=120)
    assert isinstance(payload, EncodedPayload)
    assert payload.wire == json.dumps(payload).encode("utf-8")
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
    assert written == json.dumps(record).encode("utf-8")
    # the plain-dict path writes the same bytes
    other = ResultCache(tmp_path / "plain")
    other.put(key, plain)
    with open(other._entry_path(key), "rb") as handle:
        assert handle.read() == written
    # and a second process reads it back as a hit
    assert ResultCache(tmp_path).get(key) == plain


# -- the served path ----------------------------------------------------------

def _payload_tail(line):
    """The payload bytes a framed analyze line ends with."""
    payload = json.loads(line)["result"]["payload"]
    tail = b'"payload": ' + json.dumps(payload).encode("utf-8") + b"}}\n"
    assert line.endswith(tail)
    return payload


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
    texts = subst_texts(subst, domain)
    assert subst.text_memo == {domain.did: texts}
    assert subst_texts(subst, domain) is texts
    ref = weakref.ref(subst)
    del subst
    gc.collect()
    assert ref() is None
    # nothing process-wide kept the texts: only the local name does
    assert sys.getrefcount(texts) == 2


def test_bottom_and_non_interned_substs_are_not_memoized():
    domain = TypeLeafDomain()
    assert subst_texts(PAT_BOTTOM, domain) == ('"bottom"', '"bottom"')
    loose = AbstractSubst(1, (0,), (PatNode(value=g_int()),))
    assert not loose.interned
    canonical, wire = subst_texts(loose, domain)
    assert json.loads(canonical) == json.loads(wire)
    assert loose.text_memo is None


def test_type_database_domains_do_not_memoize():
    domain = TypeLeafDomain(type_database=[g_list_of(g_int())])
    assert not domain.shared_did
    subst = _unique_subst()
    subst_texts(subst, domain)
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
                    assert result.domain.did in subst.text_memo
                    size = sizes.setdefault(id(subst),
                                            len(subst.text_memo))
                    assert len(subst.text_memo) == size
    assert len(sizes) < len(substs)  # later edits met earlier substs


def test_the_one_shot_cli_does_not_import_the_module(tmp_path):
    import subprocess
    source = tmp_path / "prog.pl"
    source.write_text("p(a).\n")
    code = ("import sys\n"
            "from repro.__main__ import main\n"
            "assert main([%r, 'p/1', '--json']) == 0\n"
            "assert 'repro.service.wire' not in sys.modules\n"
            % str(source))
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
