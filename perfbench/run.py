"""The analyzer's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Workloads:

* ``corpus-cold``: a fresh ``repro FILE QUERY --json`` process per
  Table-1 program, plus ``repro check`` on CHK (the CLI / CI path);
* ``serve-edit``: one ``repro serve`` and one client editing programs
  and reading them back (the write side of a warm server);
* ``router-read``: ``repro router --spawn 2 --replicate 2`` and two
  clients reading whole payloads, with a small share of edits.

Every output is checked against ``oracle.json``.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it has the per-layer metrics, taken by
timing the benchmark's own calls into the program's public functions
and reading the program's counters.  Lines before it are a readable
report.  Exit status 0 with a result, 2 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import metrics  # noqa: E402
import spans as spanlib  # noqa: E402
import streams  # noqa: E402
import workload  # noqa: E402

WORKLOADS = ("corpus-cold", "serve-edit", "router-read")

END_TO_END = (
    ("corpus_s", "s"), ("program_s_geomean", "s"), ("req_per_s", "1/s"),
    ("read_ms_p50", "ms"), ("edit_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"), ("setup_s", "s"),
)

PER_LAYER = (
    [("read_ms_tail", "ms"), ("edit_ms_tail", "ms"),
     ("proc.start_s", "s"), ("proc.import_s", "s"),
     ("prolog.parse_s", "s"), ("prolog.normalize_s", "s"),
     ("fixpoint.analyze_s", "s"),
     ("fixpoint.procedure_iterations", "count"),
     ("fixpoint.clause_iterations", "count"),
     ("fixpoint.clause_iterations_skipped", "count"),
     ("fixpoint.entries_created", "count"),
     ("typegraph.opcache_hits", "count"),
     ("typegraph.opcache_misses", "count"),
     ("typegraph.opcache_hit_ratio", "ratio"),
     ("typegraph.arena_compiles", "count"),
     ("typegraph.kernel_calls", "count"),
     ("native.build_s", "s"),
     ("assertions.check_s", "s"),
     ("serialize.encode_s", "s"), ("serialize.dump_s", "s"),
     ("serialize.payload_bytes", "bytes"),
     ("server.read_s_p50", "s"), ("server.edit_s_p50", "s"),
     ("server.check_s_p50", "s"),
     ("cache.hit_ratio", "ratio"), ("cache.evictions", "count"),
     ("server.analyses_executed", "count"), ("server.coalesced", "count"),
     ("server.rejected", "count"), ("server.errors", "count"),
     ("transport.ms_p50", "ms"),
     ("router.hop_ms_p50", "ms"), ("router.replications", "count"),
     ("router.replication_failures", "count"),
     ("router.anti_entropy_passes", "count"),
     ("router.anti_entropy_repairs", "count"),
     ("router.read_repairs", "count"), ("router.failovers", "count"),
     ("router.forward_retries", "count"),
     ("trace.overhead_share", "ratio"),
     ("trace.unattributed_share", "ratio"),
     ("host.calib_ms", "ms"), ("fail_share", "ratio")]
    + [("program.%s.%s" % (name, field), "s")
       for name in streams.TABLE1
       for field in ("wall_s", "fixpoint_s")]
)


class Context:
    """What a workload gets: its seed and time, a fresh run directory,
    the oracle, and the program corpus."""

    def __init__(self, args, run_dir: str) -> None:
        from oracle import Oracle
        from repro.benchprogs import benchmark
        from repro.service.serialize import payload_fingerprint
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.run_dir = run_dir
        self.oracle = Oracle()
        self.fingerprint_of = payload_fingerprint
        self.corpus = {name: benchmark(name) for name in
                       streams.TABLE1 + (streams.CHECK_PROGRAM,)}


def _dispatch(ctx, name: str) -> dict:
    if name == "corpus-cold":
        import cold
        return cold.run(ctx)
    import served
    if name == "serve-edit":
        return served.run_serve(ctx)
    return served.run_router(ctx)


def _common_layers(result: dict, run_dir: str, calib: list) -> dict:
    col = result["collector"]
    layer = dict(result["per_layer"])
    for name, unit in PER_LAYER:
        if name.startswith(result["bypassed"]):
            layer[name] = (0.0, unit)
    starts = [harness.interpreter_start_s() for _ in range(5)]
    imports = [harness.probe()[1] for _ in range(5)]
    layer["proc.start_s"] = (metrics.median(starts), "s")
    layer["proc.import_s"] = (metrics.median(imports), "s")
    layer["native.build_s"] = (
        harness.kernel_build_s(os.path.join(run_dir, "kernel-build")), "s")
    layer["host.calib_ms"] = (metrics.median(calib), "ms")
    layer["fail_share"] = (col.failed / max(col.attempted, 1), "ratio")
    for name, (_, value, _) in workload.tails(col).items():
        layer[name] = (value, "ms")
    layer["trace.unattributed_share"] = (
        spanlib.unattributed_share(result["spans"].spans,
                                   result["root"]), "ratio")
    return layer


def _report(name: str, result: dict, shown: dict, calib: list,
            trace: bool) -> None:
    col = result["collector"]
    print("perfbench %s: %d operations, %d failed, %d passes"
          % (name, col.attempted, col.failed, col.passes))
    print("set-ups: %s s" % ", ".join("%.3f" % v for v in result["setups"]))
    print("host.calib_ms before/after: %.2f / %.2f"
          % (metrics.median(calib[:len(calib) // 2]),
             metrics.median(calib[len(calib) // 2:])))
    tails = workload.tails(col)
    for metric, (value, unit) in shown.items():
        note = ""
        if metric in tails:
            pct, _, count = tails[metric]
            note = "  (p%g of %d samples)" % (pct, count)
        print("  %-36s %14.6g %-6s%s" % (metric, value, unit, note))
    if trace:
        print("self-time waterfall (%s):" % name)
        for span, seconds, share in spanlib.waterfall(
                result["spans"].spans):
            print("  %-24s %10.4f s %6.1f%%" % (span, seconds,
                                                100.0 * share))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        harness.check_checkout()
        harness.configure_environment()
        harness.ensure_kernel()
        calib = metrics.calibration_ms()
        run_dir = harness.new_run_dir(args.workload)
        result = _dispatch(Context(args, run_dir), args.workload)
        calib += metrics.calibration_ms()
    except harness.BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    if args.trace:
        shown = _common_layers(result, run_dir, calib)
        names = PER_LAYER
        trace_dir = os.path.join(harness.build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        result["spans"].write(os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed)))
    else:
        shown = result["end_to_end"]
        names = END_TO_END
    missing = [name for name, _ in names if name not in shown]
    if missing:
        print("perfbench: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    col = result["collector"]
    shown = {name: shown[name] for name, _ in names}
    _report(args.workload, result, shown, calib, bool(args.trace))
    if col.failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": col.failed == 0,
        "attempted": col.attempted,
        "failed": col.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
