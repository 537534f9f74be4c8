"""Bookkeeping shared by the workloads: latency samples, failures, the
end-to-end metrics computed from them, and per-layer figures computed
from the traced run's spans."""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Iterable, List, Optional

import metrics
from streams import CHECK_PROGRAM, TABLE1


class Collector:
    """Latencies of the untraced operations, per (program, class),
    plus failure accounting for every operation attempted."""

    def __init__(self) -> None:
        self.samples: Dict[tuple, List[float]] = {}
        self.traced_samples: Dict[tuple, List[float]] = {}
        self.server_s: Dict[str, List[float]] = {}
        self.transport_s: List[float] = []
        self.pass_s: Dict[bool, List[float]] = {False: [], True: []}
        self.passes = 0
        self.verify_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.lock = threading.Lock()

    def ok(self, program: str, cls: str, seconds: float,
           traced: bool = False) -> None:
        with self.lock:
            self.attempted += 1
            target = self.traced_samples if traced else self.samples
            target.setdefault((program, cls), []).append(seconds)

    def fail(self, problem: str) -> None:
        with self.lock:
            self.attempted += 1
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
                print("perfbench: failed: %s" % problem, file=sys.stderr)

    def checked(self, seconds: float) -> None:
        """Time the benchmark spent checking outputs against the
        oracle, which is not the program's time."""
        with self.lock:
            self.verify_s += seconds

    def served(self, cls: str, rtt: float, server_seconds: float) -> None:
        with self.lock:
            self.server_s.setdefault(cls, []).append(server_seconds)
            self.transport_s.append(rtt - server_seconds)

    def end_pass(self, seconds: float, traced: bool) -> None:
        with self.lock:
            self.pass_s[traced].append(seconds)
            if not traced:
                self.passes += 1

    def by_class(self, cls: str) -> List[float]:
        return [v for (_, c), values in self.samples.items() if c == cls
                for v in values]


def run_passes(streams, seconds: float, body, trace: bool) -> float:
    """Drive one closed-loop client through its pass stream for about
    ``seconds``: a pass starts only when the median pass so far still
    fits, so runs end near the deadline with whole passes only.  In a
    traced run every other pass is traced.  Returns the wall time."""
    start = time.perf_counter()
    durations: List[float] = []
    for index, ops in enumerate(streams):
        elapsed = time.perf_counter() - start
        if durations and elapsed + metrics.median(durations) > seconds:
            break
        traced = trace and index % 2 == 1
        began = time.perf_counter()
        body(ops, traced)
        durations.append(time.perf_counter() - began)
    return time.perf_counter() - start


def end_to_end(col: Collector, wall: float, setup_s: float,
               peak_rss_mb: float, clients: int = 1) -> dict:
    """The end-to-end metrics of one run.

    ``req_per_s`` counts completed operations over the measuring wall
    time less each client's share of the time spent checking outputs.

    ``read_ms_p50`` and ``edit_ms_p50`` are each program's median
    latency of that class, combined as a geometric mean over the
    programs: a median pooled over ten programs of very different
    sizes lands between two programs' latency bands, where it jumps
    with one sample more or less."""
    per_program = metrics.per_pass_time(col.samples, max(col.passes, 1))
    out = {
        "corpus_s": (sum(per_program.values()), "s"),
        "program_s_geomean": (metrics.geomean(per_program[name]
                                              for name in TABLE1), "s"),
        "req_per_s": (sum(len(v) for v in col.samples.values())
                      / (wall - col.verify_s / clients), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    for cls in ("read", "edit"):
        out["%s_ms_p50" % cls] = (metrics.geomean(
            metrics.median(values) for (name, c), values
            in col.samples.items() if c == cls and name in TABLE1)
            * 1000.0, "ms")
    return out


def tails(col: Collector) -> Dict[str, tuple]:
    """``{metric: (percentile, milliseconds, sample count)}`` for the
    read and edit latency tails, pooled over all programs."""
    out = {}
    for cls in ("read", "edit"):
        values = [v * 1000.0 for v in col.by_class(cls)]
        found = metrics.tail(values)
        if found is None:
            found = (100.0, max(values), len(values))
        out["%s_ms_tail" % cls] = found
    return out


def program_of(rid: Optional[str]) -> Optional[str]:
    return None if rid is None else rid.split(":", 1)[0]


def layer_sum(spans: List[dict], name: str,
              programs: Optional[Iterable[str]] = None) -> float:
    """Seconds per corpus pass in span ``name``: the median duration
    per program, summed over programs."""
    by_program: Dict[str, List[float]] = {}
    for span in spans:
        if span["name"] == name:
            by_program.setdefault(program_of(span["rid"]), []).append(
                span["end"] - span["start"])
    wanted = set(programs) if programs is not None else None
    return sum(metrics.median(values)
               for program, values in by_program.items()
               if wanted is None or program in wanted)


def layer_median(spans: List[dict], name: str,
                 program: Optional[str] = None) -> float:
    values = [s["end"] - s["start"] for s in spans if s["name"] == name
              and (program is None or program_of(s["rid"]) == program)]
    return metrics.median(values) if values else 0.0


def counter_sum(records: List[dict], field: str) -> float:
    """Per-pass value of an engine or kernel counter: the median per
    program, summed over the Table-1 programs."""
    by_program: Dict[str, List[float]] = {}
    for record in records:
        by_program.setdefault(record["program"], []).append(
            record[field])
    return sum(metrics.median(by_program[name]) for name in TABLE1
               if name in by_program)


def pipeline_layers(spans: List[dict], engine: List[dict],
                    local: List[dict]) -> dict:
    """Per-layer figures of the analysis pipeline: span times per
    corpus pass, engine counters from ``engine`` records (the
    analysis's own statistics), kernel calls and output size from
    ``local`` records (calls made in a process the benchmark owns)."""
    programs = list(TABLE1) + [CHECK_PROGRAM]
    layer = {}
    for name in ("prolog.parse", "prolog.normalize", "fixpoint.analyze",
                 "serialize.encode", "serialize.dump"):
        layer[name + "_s"] = (layer_sum(spans, name, programs), "s")
    layer["assertions.check_s"] = (layer_median(spans, "assertions.check"),
                                   "s")
    for field in ("procedure_iterations", "clause_iterations",
                  "clause_iterations_skipped", "entries_created"):
        layer["fixpoint." + field] = (counter_sum(engine, field), "count")
    for field in ("opcache_hits", "opcache_misses", "arena_compiles"):
        layer["typegraph." + field] = (counter_sum(engine, field), "count")
    hits = layer["typegraph.opcache_hits"][0]
    lookups = hits + layer["typegraph.opcache_misses"][0]
    layer["typegraph.opcache_hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio")
    layer["typegraph.kernel_calls"] = (counter_sum(local, "kernel_calls"),
                                       "count")
    layer["serialize.payload_bytes"] = (
        counter_sum(local, "payload_bytes"), "bytes")
    for name in TABLE1:
        layer["program.%s.fixpoint_s" % name] = (
            layer_median(spans, "fixpoint.analyze", name), "s")
    return layer

