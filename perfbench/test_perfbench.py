"""Tests for the benchmark's own helpers.

    python -m pytest perfbench -q
"""

import itertools
import json
import os
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

import metrics  # noqa: E402
import spans  # noqa: E402
import streams  # noqa: E402


# -- tail rule ---------------------------------------------------------------

def test_tail_has_ten_samples_beyond():
    pct, value, count = metrics.tail(range(1, 101))
    assert (pct, value, count) == (90.0, 90, 100)
    assert sum(1 for v in range(1, 101) if v > value) >= 10


def test_tail_climbs_the_ladder_with_more_samples():
    assert metrics.tail(range(1000))[0] == 99.0
    assert metrics.tail(range(200))[0] == 95.0


def test_tail_needs_ten_samples_beyond_the_median_at_least():
    assert metrics.tail(range(19)) is None
    assert metrics.tail(range(20))[0] == 50.0


# -- geometric mean and per-pass time ----------------------------------------

def test_geomean():
    assert metrics.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert metrics.geomean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        metrics.geomean([1.0, 0.0])


def test_per_pass_time_weights_class_medians_by_frequency():
    samples = {("A", "read"): [1.0, 2.0, 100.0, 3.0],
               ("A", "edit"): [10.0, 12.0],
               ("B", "read"): [5.0, 5.0]}
    per = metrics.per_pass_time(samples, passes=2)
    assert per["A"] == pytest.approx(2.5 * 2 + 11.0)
    assert per["B"] == pytest.approx(5.0)


# -- spans and self time -----------------------------------------------------

def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "rid": None}


def test_self_time_subtracts_the_union_of_children():
    trace = [_span(0, "root", 0.0, 10.0),
             _span(1, "a", 1.0, 4.0, 0),
             _span(2, "b", 3.0, 6.0, 0),      # overlaps a
             _span(3, "c", 2.0, 3.0, 1)]      # nested in a
    own = spans.self_times(trace)
    assert own[0] == pytest.approx(5.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent():
    trace = [_span(0, "root", 0.0, 2.0), _span(1, "a", 1.0, 5.0, 0)]
    assert spans.self_times(trace)[0] == pytest.approx(1.0)


def test_waterfall_and_unattributed_share():
    trace = [_span(0, "root", 0.0, 10.0),
             _span(1, "a", 0.0, 6.0, 0),
             _span(2, "b", 1.0, 2.0, 1)]
    rows = {name: (seconds, share)
            for name, seconds, share in spans.waterfall(trace)}
    assert rows["a"][0] == pytest.approx(5.0)
    assert sum(share for _, share in rows.values()) == pytest.approx(1.0)
    assert spans.unattributed_share(trace, "root") == pytest.approx(0.4)


def test_recorder_nests_spans_and_keeps_request_ids():
    recorder = spans.SpanRecorder()
    with recorder.span("outer", "r1") as outer:
        with recorder.span("inner", "r1"):
            pass
        recorder.add("server", 0.0, 1.0, recorder.current(), "r1")
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["inner"]["parent"] == outer
    assert by_name["server"]["parent"] == outer
    assert by_name["outer"]["parent"] is None
    assert {s["rid"] for s in recorder.spans} == {"r1"}
    assert by_name["outer"]["start"] <= by_name["inner"]["start"] \
        <= by_name["inner"]["end"] <= by_name["outer"]["end"]


# -- seeded generators -------------------------------------------------------

GENERATORS = [
    ("cold", lambda seed: streams.cold_passes(seed)),
    ("serve", lambda seed: streams.serve_passes(seed)),
    ("router0", lambda seed: streams.router_passes(seed, 0)),
    ("router1", lambda seed: streams.router_passes(seed, 1)),
]


def _bytes(generator, seed, passes=12):
    return json.dumps(list(itertools.islice(generator(seed), passes)),
                      sort_keys=True).encode()


@pytest.mark.parametrize("name,generator", GENERATORS)
def test_generators_are_deterministic(name, generator):
    assert _bytes(generator, 7) == _bytes(generator, 7)
    assert _bytes(generator, 7) != _bytes(generator, 8)


@pytest.mark.parametrize("name,generator", GENERATORS)
def test_every_pass_covers_every_program(name, generator):
    for ops in itertools.islice(generator(3), 12):
        assert set(streams.TABLE1) <= {op["program"] for op in ops}


def test_router_clients_edit_different_versions():
    first = _bytes(lambda s: streams.router_passes(s, 0), 5)
    second = _bytes(lambda s: streams.router_passes(s, 1), 5)
    assert first != second


def test_each_edit_is_a_new_version():
    tags = [op["edit"] for ops in itertools.islice(
        streams.serve_passes(1), 20) for op in ops if op["cls"] == "edit"]
    assert len(tags) == len(set(tags))


# -- edits keep the oracle ---------------------------------------------------

@pytest.mark.parametrize("name", ["QU", "PG"])
def test_edit_keeps_the_fingerprint(name):
    from oracle import Oracle
    from repro import analyze
    from repro.benchprogs import benchmark
    from repro.service.serialize import (encode_result, payload_fingerprint,
                                         program_hash)
    bp = benchmark(name)
    tag = next(op["edit"] for op in next(streams.serve_passes(9))
               if op["program"] == name)
    source = streams.edited(bp.source, tag)
    assert program_hash(source) != program_hash(bp.source)
    payload = encode_result(analyze(source, bp.query,
                                    input_types=bp.input_types).result)
    assert Oracle().check_table(name, payload, None,
                                payload_fingerprint) == []


# -- BENCHMARK.json agrees with the runner -----------------------------------

def test_benchmark_json_lists_what_the_runner_reports():
    import run
    with open(os.path.join(os.path.dirname(_HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
