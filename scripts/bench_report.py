#!/usr/bin/env python
"""Benchmark report for the Table-3 suite — the repo's perf trajectory.

Runs the paper's benchmark programs (``repro.benchprogs``) through the
full ``GAIA(Pat(Type))`` analysis and records, per program:

* wall time (seconds, one full analysis),
* procedure / clause iterations (Table 3's own counters),
* differential-engine counters: clause iterations *skipped* (cached
  clause outputs joined instead of re-executed) and call-site
  resumptions (dirty clauses resumed from a pre-call snapshot),
* operation-cache traffic and hit rate
  (:mod:`repro.typegraph.opcache`),
* a content fingerprint of the resulting *semantic* table
  (:func:`repro.service.serialize.result_fingerprint` — per entry its
  predicate, β_in, and β_out; scheduling provenance such as dependency
  edges and iteration counts excluded), so runs can be checked
  bit-identical across cache configurations, engine modes, and
  commits.

Typical uses::

    # print the suite report
    PYTHONPATH=src python scripts/bench_report.py

    # compare against the committed trajectory file (non-blocking; CI)
    PYTHONPATH=src python scripts/bench_report.py --baseline BENCH_pr2.json

    # refresh the "current" section of the trajectory file
    PYTHONPATH=src python scripts/bench_report.py \
        --write-bench BENCH_pr2.json --label "PR2"

    # record a run as the baseline section instead
    PYTHONPATH=src python scripts/bench_report.py \
        --write-bench BENCH_pr2.json --as-baseline --label "pre-PR2"

Speed is advisory — a slow run only draws a WARNING (CI hardware
varies).  Result integrity is not: a table-fingerprint divergence from
any compared baseline exits non-zero (PR 4; previously that required
``--strict``, which is still accepted as a no-op).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro import analyze
from repro.benchprogs import benchmark, benchmark_names
from repro.service.serialize import result_fingerprint

#: v2: the table fingerprint is the *semantic* fingerprint
#: (result_fingerprint — β values only); per-program rows gained the
#: differential-engine counters and scheduler provenance.
#: v3: runs record the execution-tier provenance — the active arena
#: kernel (python/native) plus the interpreter version — so a
#: trajectory file says *what* produced its numbers.
SCHEMA = 3

#: A run slower than the reference by more than this factor draws a
#: WARNING line in the comparison (advisory — CI hardware varies).
WALL_REGRESSION_FACTOR = 1.20


def measure_program(name: str) -> dict:
    """One full analysis of one benchmark program."""
    bp = benchmark(name)
    start = time.perf_counter()
    analysis = analyze(bp.source, bp.query, input_types=bp.input_types)
    wall = time.perf_counter() - start
    stats = analysis.stats
    hits = getattr(stats, "opcache_hits", 0)
    misses = getattr(stats, "opcache_misses", 0)
    return {
        "wall_time": round(wall, 4),
        "arena_compiles": getattr(stats, "arena_compiles", 0),
        "procedure_iterations": stats.procedure_iterations,
        "clause_iterations": stats.clause_iterations,
        "clause_iterations_skipped": getattr(
            stats, "clause_iterations_skipped", 0),
        "callsite_resumptions": getattr(stats, "callsite_resumptions", 0),
        "scheduler": getattr(stats, "scheduler", "lifo"),
        "opcache_hits": hits,
        "opcache_misses": misses,
        "opcache_hit_rate": (round(hits / (hits + misses), 4)
                             if hits + misses else None),
        "table_fingerprint": result_fingerprint(analysis.result),
    }


def run_suite(programs) -> dict:
    try:
        from repro.typegraph import opcache
        cache_enabled = opcache.enabled()
    except ImportError:  # pre-PR2 checkouts measured as baselines
        cache_enabled = False
    try:
        from repro.typegraph import arena
        arena_enabled = arena.enabled()
    except ImportError:  # pre-PR4 checkouts measured as baselines
        arena_enabled = False
    from repro.fixpoint.engine import AnalysisConfig
    # baselines measured from checkouts older than the differential
    # engine have no such field
    differential = getattr(AnalysisConfig(), "differential", False)
    results = {}
    for name in programs:
        results[name] = measure_program(name)
        print("  %-4s %8.3fs  proc=%-6d clause=%-6d skipped=%-6d "
              "resumed=%-5d arena=%-5d hit-rate=%s"
              % (name, results[name]["wall_time"],
                 results[name]["procedure_iterations"],
                 results[name]["clause_iterations"],
                 results[name]["clause_iterations_skipped"],
                 results[name]["callsite_resumptions"],
                 results[name]["arena_compiles"],
                 results[name]["opcache_hit_rate"]),
              file=sys.stderr)
    return {
        "programs": results,
        "total_wall_time": round(sum(r["wall_time"]
                                     for r in results.values()), 4),
        "total_clause_iterations": sum(r["clause_iterations"]
                                       for r in results.values()),
        "total_clause_iterations_skipped": sum(
            r["clause_iterations_skipped"] for r in results.values()),
        "total_arena_compiles": sum(r["arena_compiles"]
                                    for r in results.values()),
        "opcache_enabled": cache_enabled,
        "arena_enabled": arena_enabled,
        "differential_enabled": differential,
        "arena_kernel": _active_kernel(),
        "python": platform.python_version(),
        "python_version": platform.python_version(),
    }


def _active_kernel():
    try:
        from repro.typegraph import arena
        return arena.kernel()
    except ImportError:  # pre-PR8 checkouts measured as baselines
        return None


def print_comparison(run: dict, reference: dict, ref_name: str) -> bool:
    """Side-by-side table; returns True when fingerprints all match."""
    ref_programs = reference.get("programs", {})
    print("\n%-6s %10s %12s %9s %10s  %s"
          % ("prog", "wall(s)", "%s(s)" % ref_name, "speedup",
             "hit-rate", "table"))
    fingerprints_ok = True
    for name, row in run["programs"].items():
        ref = ref_programs.get(name)
        if ref is None:
            print("%-6s %10.3f %12s" % (name, row["wall_time"], "-"))
            continue
        speedup = (ref["wall_time"] / row["wall_time"]
                   if row["wall_time"] else float("inf"))
        same = (row["table_fingerprint"] == ref.get("table_fingerprint"))
        fingerprints_ok &= same or ref.get("table_fingerprint") is None
        print("%-6s %10.3f %12.3f %8.2fx %10s  %s"
              % (name, row["wall_time"], ref["wall_time"], speedup,
                 row["opcache_hit_rate"],
                 "same" if same else "DIFFERENT"))
    # Aggregates over the programs both sides actually measured, so a
    # --programs subset run compares apples to apples.
    common = [name for name in run["programs"] if name in ref_programs]
    if common:
        run_total = sum(run["programs"][n]["wall_time"] for n in common)
        ref_total = sum(ref_programs[n]["wall_time"] for n in common)
        if run_total and ref_total:
            print("%-6s %10.3f %12.3f %8.2fx   (aggregate over %d "
                  "common programs, vs %s)"
                  % ("TOTAL", run_total, ref_total,
                     ref_total / run_total, len(common), ref_name))
            if run_total > ref_total * WALL_REGRESSION_FACTOR:
                print("WARNING: aggregate wall time regressed more than "
                      "%d%% vs %s (%.3fs > %.3fs) — advisory only"
                      % (round((WALL_REGRESSION_FACTOR - 1) * 100),
                         ref_name, run_total, ref_total),
                      file=sys.stderr)
        run_clauses = sum(run["programs"][n]["clause_iterations"]
                          for n in common)
        ref_clauses = sum(ref_programs[n].get("clause_iterations", 0)
                          for n in common)
        if run_clauses and ref_clauses:
            print("%-6s %10d %12d %8.2fx   (executed clause iterations)"
                  % ("CLAUSE", run_clauses, ref_clauses,
                     ref_clauses / run_clauses))
    return fingerprints_ok


def render_server_bench(path: Path) -> bool:
    """Pretty-print a BENCH_pr5.json server-throughput report; returns
    False (a failure) on fingerprint mismatches recorded in it."""
    bench = json.loads(path.read_text())
    oneshot = bench["oneshot_cli"]
    warm = bench["server_warm"]
    latency = warm["latency"]
    coalescing = bench["coalescing"]
    print("\n== server throughput (%s) ==" % path)
    print("%-14s %10s %10s %10s"
          % ("regime", "req/s", "requests", "wall(s)"))
    print("%-14s %10.2f %10d %10.2f"
          % ("one-shot CLI", oneshot["requests_per_second"],
             oneshot["requests"], oneshot["total_seconds"]))
    print("%-14s %10.2f %10d %10.2f   (%d clients, p50=%ss, "
          "p95=%ss, cache hit rate %s)"
          % ("warm server", warm["requests_per_second"],
             warm["requests"], warm["total_seconds"],
             warm["clients"], latency["p50"], latency["p95"],
             warm["cache_hit_rate"]))
    print("warm speedup vs one-shot: %.2fx"
          % bench["warm_speedup_vs_oneshot"])
    print("coalescing: %d concurrent duplicates -> %d execution(s), "
          "%d riders"
          % (coalescing["clients"], coalescing["analyses_executed"],
             coalescing["coalesced"]))
    ok = (warm["fingerprints_identical"]
          and not bench.get("fingerprint_mismatches")
          and coalescing["analyses_executed"] == 1)
    if not ok:
        print("ERROR: %s records fingerprint/coalescing failures"
              % path, file=sys.stderr)
    return ok


def render_router_bench(path: Path) -> bool:
    """Pretty-print a BENCH_pr6.json router-scaling report; returns
    False (a failure) on fingerprint mismatches or load errors
    recorded in it."""
    bench = json.loads(path.read_text())
    hotset = bench["hotset"]
    sweep = bench["scaling"]["shards"]
    speedups = bench["scaling"]["speedup_vs_1"]
    failover = bench["failover"]
    print("\n== cluster scaling (%s) ==" % path)
    print("hot set: %d programs over %s (zipf s=%s), %d clients, "
          "%d-entry shard caches, %ss/point"
          % (hotset["programs"], hotset["base"], hotset["zipf_s"],
             hotset["clients"], hotset["max_memory_entries_per_shard"],
             hotset["seconds_per_point"]))
    print("%-10s %10s %9s %10s %10s %10s %9s"
          % ("shards", "req/s", "speedup", "hit-rate", "p50(s)",
             "p95(s)", "analyses"))
    for count in sorted(sweep, key=int):
        point = sweep[count]
        print("%-10s %10.1f %8.2fx %10s %10s %10s %9d"
              % (count, point["requests_per_second"],
                 speedups[count], point["cache_hit_rate"],
                 point["latency"]["p50"], point["latency"]["p95"],
                 point["analyses_executed"]))
    print("failover: SIGKILL %s mid-run -> %d requests, %d errors, "
          "%d failovers, status after: %s"
          % (failover["killed_shard"], failover["requests"],
             len(failover["errors"]), failover["failovers"],
             failover["shard_status_after"]))
    load_errors = [err for count in sweep
                   for err in sweep[count]["errors"]]
    ok = (not bench.get("fingerprint_mismatches")
          and not load_errors and not failover["errors"]
          and failover["failovers"] >= 1)
    if not ok:
        print("ERROR: %s records fingerprint/failover/load failures"
              % path, file=sys.stderr)
    return ok


def render_chaos_bench(path: Path) -> bool:
    """Pretty-print a BENCH_pr7.json self-healing/chaos report; returns
    False (a failure) on recorded errors, mismatches, missing
    restarts/membership churn, or a failover p95 that replication did
    not improve."""
    bench = json.loads(path.read_text())
    hotset = bench["hotset"]
    chaos = bench["chaos"]
    ab = bench["failover_ab"]
    print("\n== self-healing chaos (%s) ==" % path)
    print("hot set: %d programs over %s (zipf s=%s), %d clients, "
          "%ss run, seeded shard faults: %s"
          % (hotset["programs"], hotset["base"], hotset["zipf_s"],
             hotset["clients"], hotset["seconds"],
             chaos["shard_faults"]["faults"]))
    print("load     : %d requests, %d errors, %.1f req/s "
          "(p50=%ss p95=%ss)"
          % (chaos["requests"], len(chaos["errors"]),
             chaos["requests_per_second"], chaos["latency"]["p50"],
             chaos["latency"]["p95"]))
    print("healing  : SIGKILL %s -> %d restart(s) (%d failed, "
          "%d breaker trips); %d add(s), %d remove(s); %d failover(s)"
          % (chaos["killed_shard"], chaos["restarts"],
             chaos["restart_failures"], chaos["breaker_trips"],
             chaos["shards_added"], chaos["shards_removed"],
             chaos["failovers"]))
    print("faults   : injected by shards: %s"
          % (chaos["faults_injected_by_shards"] or "none"))
    for event in chaos["membership_log"]:
        print("  membership: %s" % event)
    for replicate in (1, 2):
        point = ab["replicate_%d" % replicate]
        print("failover first-touch (replicate=%d): p50=%ss p95=%ss "
              "over %d keys of dead shard %s"
              % (replicate, point["first_touch_p50"],
                 point["first_touch_p95"], point["victim_keys"],
                 point["victim"]))
    print("replication improves failover p95 by x%s"
          % ab["p95_improvement"])
    ok = (not bench.get("fingerprint_mismatches")
          and not chaos["errors"]
          and chaos["restarts"] >= 1
          and chaos["shards_added"] >= 1
          and chaos["shards_removed"] >= 1
          and ab["replicate_2"]["first_touch_p95"]
          < ab["replicate_1"]["first_touch_p95"])
    # PR 9 phases (absent from BENCH_pr7-era reports)
    router_kill = bench.get("router_kill")
    if router_kill is not None:
        print("router kill: %d requests, %d errors, standby "
              "promoted=%s (%d sync pull(s)), shards after: %s"
              % (router_kill["requests"], len(router_kill["errors"]),
                 router_kill["standby_promoted"],
                 router_kill["standby_sync_pulls"],
                 router_kill["standby_shards"]))
        ok = (ok and not router_kill["errors"]
              and router_kill["standby_promoted"])
    anti_entropy = bench.get("anti_entropy_ab")
    if anti_entropy is not None:
        for variant in ("off", "on"):
            point = anti_entropy["anti_entropy_%s" % variant]
            print("anti-entropy %-3s: first-touch p50=%ss p95=%ss "
                  "over %d restarted keys (%d repair(s), repair "
                  "pass %ss after kill)"
                  % (variant, point["first_touch_p50"],
                     point["first_touch_p95"], point["victim_keys"],
                     point["anti_entropy_repairs"],
                     point["repair_seconds"]))
        print("anti-entropy improves restart first-touch p95 by x%s"
              % anti_entropy["p95_improvement"])
        ok = (ok
              and anti_entropy["anti_entropy_on"]
              ["anti_entropy_repairs"] >= 1
              and anti_entropy["anti_entropy_on"]["first_touch_p95"]
              < anti_entropy["anti_entropy_off"]["first_touch_p95"])
    if not ok:
        print("ERROR: %s records chaos-phase failures" % path,
              file=sys.stderr)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the Table-3 benchmark suite and report "
                    "timings, iteration counts, and cache hit rates.")
    parser.add_argument("--programs", nargs="*", metavar="NAME",
                        help="subset of benchmark programs (default all)")
    parser.add_argument("--label", default=None,
                        help="label recorded with the run")
    parser.add_argument("--out", metavar="FILE",
                        help="write this run's raw measurements as JSON")
    parser.add_argument("--baseline", metavar="FILE", nargs="+",
                        help="compare against the baseline (and current) "
                             "sections of one or more trajectory files "
                             "(the suite runs once); non-blocking")
    parser.add_argument("--write-bench", metavar="FILE",
                        help="update a trajectory file's 'current' section "
                             "with this run (keeps its baseline)")
    parser.add_argument("--as-baseline", action="store_true",
                        help="with --write-bench: record this run as the "
                             "'baseline' section instead")
    parser.add_argument("--strict", action="store_true",
                        help="accepted for compatibility; fingerprint "
                             "divergence always exits non-zero now")
    parser.add_argument("--expect-kernel", metavar="TIER",
                        choices=("python", "native"),
                        help="fail unless the active arena kernel tier "
                             "is TIER (CI guards that a matrix job "
                             "measured what it claims)")
    parser.add_argument("--server", metavar="FILE",
                        help="render a BENCH_pr5.json server "
                             "throughput/latency report (produced by "
                             "benchmarks/bench_server.py); given "
                             "alone, skips running the suite")
    parser.add_argument("--router", metavar="FILE",
                        help="render a BENCH_pr6.json cluster scaling "
                             "/ failover report (produced by "
                             "benchmarks/bench_server.py --mode "
                             "router); given alone, skips running "
                             "the suite")
    parser.add_argument("--chaos", metavar="FILE",
                        help="render a BENCH_pr7.json self-healing / "
                             "chaos report (produced by "
                             "benchmarks/bench_server.py --mode "
                             "chaos); given alone, skips running "
                             "the suite")
    args = parser.parse_args(argv)

    if args.expect_kernel:
        active = _active_kernel()
        if active != args.expect_kernel:
            print("ERROR: expected arena kernel %r but the active tier "
                  "is %r" % (args.expect_kernel, active),
                  file=sys.stderr)
            return 1

    if (args.server or args.router or args.chaos) and not (
            args.baseline or args.write_bench or args.out
            or args.programs):
        ok = True
        if args.server:
            ok &= render_server_bench(Path(args.server))
        if args.router:
            ok &= render_router_bench(Path(args.router))
        if args.chaos:
            ok &= render_chaos_bench(Path(args.chaos))
        return 0 if ok else 1

    programs = args.programs or benchmark_names(include_variants=False)
    print("running %d benchmark programs..." % len(programs),
          file=sys.stderr)
    run = run_suite(programs)
    if args.label:
        run["label"] = args.label

    print("\naggregate wall time: %.3fs" % run["total_wall_time"])

    if args.out:
        Path(args.out).write_text(json.dumps(run, indent=2, sort_keys=True)
                                  + "\n")
        print("wrote %s" % args.out, file=sys.stderr)

    fingerprints_ok = True
    for baseline_file in args.baseline or ():
        bench = json.loads(Path(baseline_file).read_text())
        print("\n== vs %s ==" % baseline_file)
        ref_schema = bench.get("schema")
        if not isinstance(ref_schema, int) or ref_schema < 2:
            # Schema 1 fingerprints with a different definition (it
            # hashed the full encode_result payload), so every row
            # would read DIFFERENT on bit-identical tables.  Schemas
            # >= 2 share the semantic fingerprint and stay comparable
            # (v3 only added tier/version provenance fields).
            print("NOTE: %s has schema %r, this script compares "
                  "schemas >= 2 — fingerprints are not comparable; "
                  "skipping" % (baseline_file, ref_schema),
                  file=sys.stderr)
            continue
        if "baseline" in bench:
            fingerprints_ok &= print_comparison(run, bench["baseline"],
                                                "baseline")
        if "current" in bench:
            fingerprints_ok &= print_comparison(run, bench["current"],
                                                "committed")

    if args.write_bench:
        path = Path(args.write_bench)
        bench = (json.loads(path.read_text()) if path.exists()
                 else {"schema": SCHEMA})
        bench["schema"] = SCHEMA
        bench["baseline" if args.as_baseline else "current"] = run
        baseline = bench.get("baseline")
        current = bench.get("current")
        if baseline and current and current.get("total_wall_time"):
            bench["aggregate_speedup"] = round(
                baseline["total_wall_time"] / current["total_wall_time"], 2)
        path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
        print("wrote %s" % path, file=sys.stderr)

    if args.server:
        fingerprints_ok &= render_server_bench(Path(args.server))
    if args.router:
        fingerprints_ok &= render_router_bench(Path(args.router))
    if args.chaos:
        fingerprints_ok &= render_chaos_bench(Path(args.chaos))

    if not fingerprints_ok:
        print("ERROR: analysis tables diverge from the baseline",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
