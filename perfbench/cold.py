"""corpus-cold: one fresh ``repro`` process per program, as a CLI user
or a CI job runs it.  Every call pays interpreter start, ``import
repro``, the kernel load and cold intern tables; the service and
cluster layers are bypassed."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import harness
import metrics
import streams
from spans import SpanRecorder
from workload import Collector, end_to_end, pipeline_layers, run_passes

_HERE = os.path.dirname(os.path.abspath(__file__))

_TIMEOUT = 120.0


def _argv(path: str, bp, check: bool) -> list:
    query = "%s/%d" % bp.query
    argv = (["check", path, query] if check else [path, query])
    if bp.input_types:
        argv += ["--input", ",".join(bp.input_types)]
    return argv + ["--json"]


def _verify(ctx, name: str, check: bool, code: int, out: bytes) -> list:
    """Oracle problems with one CLI call's exit code and output."""
    want = ctx.oracle.chk["exit_code"] if check else 0
    if code != want:
        return ["%s: exit code %d, expected %d" % (name, code, want)]
    try:
        obj = json.loads(out)
    except ValueError:
        return ["%s: output is not JSON" % name]
    if check:
        return ctx.oracle.check_verdicts(obj["check"]["verdicts"])
    return ctx.oracle.check_table(name, obj["result"], None,
                                  ctx.fingerprint_of)


def run(ctx) -> dict:
    col = Collector()
    spans = SpanRecorder()
    records = []
    program_dir = os.path.join(ctx.run_dir, "programs")
    os.makedirs(program_dir)
    errors = os.path.join(ctx.run_dir, "stderr.log")

    def write_version(name: str, tag, fresh: bool = False) -> str:
        path = os.path.join(program_dir, "%s%s.pl"
                            % (name, "" if tag is None else "_" + tag))
        if fresh or not os.path.exists(path):
            with open(path, "w") as handle:
                handle.write(streams.edited(ctx.corpus[name].source, tag))
        return path

    peak_rss = 0.0
    setups = []
    for _ in range(3):
        start = time.perf_counter()
        for name in ctx.corpus:
            write_version(name, None, fresh=True)
        harness.probe()
        setups.append(time.perf_counter() - start)

    def traced_call(name, path, bp, check, rid):
        out_path = os.path.join(ctx.run_dir, "trace-%d.json"
                                % len(records))
        argv = [out_path, "check" if check else "analyze", path,
                "%s/%d" % bp.query]
        if bp.input_types:
            argv.append(",".join(bp.input_types))
        with open(errors, "ab") as stderr:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(_HERE, "traced_cli.py")]
                + argv, stdout=subprocess.PIPE, stderr=stderr,
                timeout=_TIMEOUT)
            end = time.perf_counter()
        with open(out_path) as handle:
            worker = json.load(handle)
        root = spans.add("cli", start, end, None, rid)
        spans.add("proc.start", start, worker["started"], root, rid)
        remap = {}
        for span in sorted(worker["spans"], key=lambda s: s["id"]):
            remap[span["id"]] = spans.add(
                span["name"], span["start"], span["end"],
                remap.get(span["parent"], root), rid)
        counters = dict(worker["counters"], program=name)
        records.append(counters)
        return proc.returncode, proc.stdout, start, end

    def body(ops, _):
        nonlocal peak_rss
        # Every traced pass pairs each untraced call with a traced one,
        # in alternating order, for the overhead share.
        traced = ctx.trace
        for index, op in enumerate(ops):
            name = op["program"]
            bp = ctx.corpus[name]
            check = op["kind"] == "check"
            path = write_version(name, op["edit"])
            rid = "%s:%s" % (name, op["edit"])
            calls = [False, True] if traced else [False]
            if traced and index % 2:
                calls.reverse()
            for is_traced in calls:
                try:
                    if is_traced:
                        code, out, start, end = traced_call(
                            name, path, bp, check, rid)
                    else:
                        code, out, start, end, rss = harness.run_cli(
                            _argv(path, bp, check), errors, _TIMEOUT)
                        peak_rss = max(peak_rss, rss)
                    began = time.perf_counter()
                    problems = _verify(ctx, name, check, code, out)
                    col.checked(time.perf_counter() - began)
                except Exception as error:  # one failed call, not the run
                    problems = ["%s: %s: %s" % (name, type(error).__name__,
                                                error)]
                if problems:
                    col.fail("; ".join(problems))
                else:
                    col.ok(name, op["cls"], end - start,
                           traced=is_traced)
        col.end_pass(0.0, False)

    wall = run_passes(streams.cold_passes(ctx.seed), ctx.seconds, body,
                      ctx.trace)
    result = {"collector": col, "spans": spans, "setups": setups,
              "root": "cli",
              "bypassed": ("server.", "cache.", "transport.", "router.")}
    result["end_to_end"] = end_to_end(
        col, wall, metrics.median(setups), peak_rss)
    if ctx.trace:
        result["per_layer"] = _per_layer(col, spans, records)
    return result


def _per_layer(col, spans, records) -> dict:
    layer = pipeline_layers(spans.spans, records, records)
    untraced = {}
    traced = {}
    for (program, _), values in col.samples.items():
        untraced.setdefault(program, []).extend(values)
    for (program, _), values in col.traced_samples.items():
        traced.setdefault(program, []).extend(values)
    for name in streams.TABLE1:
        layer["program.%s.wall_s" % name] = (
            metrics.median(untraced[name]) if name in untraced else 0.0,
            "s")
    shared = [p for p in untraced if p in traced]
    base = sum(metrics.median(untraced[p]) for p in shared)
    layer["trace.overhead_share"] = (
        (sum(metrics.median(traced[p]) for p in shared) / base - 1.0)
        if base else 0.0, "ratio")
    return layer
