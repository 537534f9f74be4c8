"""The CLI's commands besides ``repro FILE QUERY``: ``repro check``,
``repro profile``, ``repro batch`` and ``repro cache``.
:func:`repro.__main__.main` imports this module only when one of them
runs, so a plain analysis never compiles them (``serve`` and
``router`` live in :mod:`repro.service` the same way).
"""

from __future__ import annotations

import argparse
import sys

from .cliutil import (BENCHMARK_NAMES, UsageError, analyze_workload,
                      benchmark_help, parse_query, print_json, workload)

__all__ = ["check_main", "profile_main", "batch_main", "cache_main"]


# -- repro check -------------------------------------------------------------

def check_main(argv) -> int:
    """``repro check``: verify a program's own ``assert_*`` directives
    against the analysis and blame-slice every violation.

    Exit code contract: 0 when no assertion is violated (verified and
    unreachable both pass), 1 when at least one is — so the command
    slots straight into CI.  Other failures (bad arguments, missing or
    unparsable programs, malformed directives) exit 2.
    """
    from .analysis.report import format_check_report
    from .assertions import (AssertionSyntaxError, check_analysis,
                             harvest_assertions)
    from .prolog.program import parse_program
    from .service.serialize import check_fingerprint, encode_check

    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Check a program's assert_pattern/assert_calls "
                    "directives against the computed type analysis; "
                    "violations are reported with a source-anchored "
                    "blame slice and exit status 1.")
    parser.add_argument("file", nargs="?",
                        help="Prolog source file to check")
    parser.add_argument("query", nargs="?",
                        help="query predicate as name/arity")
    parser.add_argument("--benchmark", metavar="NAME",
                        help=benchmark_help("check"))
    parser.add_argument("--input", metavar="TYPES",
                        help="comma-separated input types per argument "
                             "(any, list, int, codes)")
    parser.add_argument("--or-width", type=int, default=None)
    parser.add_argument("--baseline", action="store_true",
                        help="check against the principal-functor "
                             "baseline domain")
    parser.add_argument("--no-slices", action="store_true",
                        help="report verdicts only, skip blame slicing")
    parser.add_argument("--json", action="store_true",
                        help="dump verdicts and slices as JSON")
    args = parser.parse_args(argv)
    name, source, query, input_types = workload(args, parser)

    try:
        assertions = tuple(harvest_assertions(parse_program(source)))
    except AssertionSyntaxError as error:
        raise UsageError("bad assertion directive: %s" % error) from None
    except SyntaxError as error:  # ParseError, TokenizeError
        raise UsageError(error) from None
    except (KeyError, ValueError) as error:
        raise UsageError(error.args[0]) from None

    analysis = analyze_workload(source, query, input_types, args.baseline,
                                max_or_width=args.or_width,
                                keep_deps=True, assertions=assertions)
    try:
        report, slices = check_analysis(
            analysis, assertions, with_slices=not args.no_slices)
    except (KeyError, ValueError) as error:
        raise UsageError(error.args[0]) from None

    if args.json:
        check = encode_check(report, slices)
        print_json({
            "name": name,
            "query": list(query),
            "check": check,
            "check_fingerprint": check_fingerprint(check),
            "passed": report.ok,
        })
        return 0 if report.ok else 1
    if not assertions:
        print("%s: no assert_pattern/assert_calls directives declared"
              % name)
        return 0
    print(format_check_report(report, slices, name=name))
    return 0 if report.ok else 1


# -- repro profile -----------------------------------------------------------

def profile_main(argv) -> int:
    """Profile one analysis run and print a per-operation breakdown.

    Perf work should start from data.  Reports wall time, the cProfile
    hot spots inside ``repro``, per-operation memo traffic
    (hits/misses/hit rate for every opcache table), and arena
    compilation counters.
    """
    import cProfile
    import pstats

    from .analysis.report import format_table
    from .typegraph import arena, opcache

    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run one analysis under cProfile and report "
                    "per-operation wall/call/cache statistics.")
    parser.add_argument("file", nargs="?",
                        help="Prolog source file to analyze")
    parser.add_argument("query", nargs="?",
                        help="query predicate as name/arity")
    parser.add_argument("--benchmark", metavar="NAME",
                        help=benchmark_help("profile"))
    parser.add_argument("--input", metavar="TYPES",
                        help="comma-separated input types per argument")
    parser.add_argument("--or-width", type=int, default=None)
    parser.add_argument("--baseline", action="store_true",
                        help="use the principal-functor baseline domain")
    parser.add_argument("--top", type=int, default=15,
                        help="number of hot functions to list")
    parser.add_argument("--sort", choices=("cumulative", "tottime"),
                        default="tottime",
                        help="profile ordering (default: tottime)")
    args = parser.parse_args(argv)
    _, source, query, input_types = workload(args, parser)

    # Fresh counters so the report attributes traffic to this run only
    # (cached *results* are kept — a warm service process profiles as
    # the warm process it is).
    before = {cache.name: (cache.hits, cache.misses)
              for cache in opcache.caches()}
    arena_before = arena.stats()

    profiler = cProfile.Profile()
    arena.reset_kernel_counters()
    arena.profile_kernels(True)
    profiler.enable()
    try:
        analysis = analyze_workload(source, query, input_types,
                                    args.baseline,
                                    max_or_width=args.or_width)
    finally:
        profiler.disable()
        arena.profile_kernels(False)

    stats = analysis.stats
    print("wall %.3fs  cpu %.3fs  proc-it %d  clause-it %d "
          "(%d skipped, %d resumed)  entries %d"
          % (analysis.wall_time, stats.cpu_time,
             stats.procedure_iterations, stats.clause_iterations,
             stats.clause_iterations_skipped, stats.callsite_resumptions,
             stats.entries_created))

    print("\n== operation caches (this run) ==")
    rows = []
    for name, table in sorted(opcache.stats().items()):
        old_hits, old_misses = before.get(name, (0, 0))
        hits = table["hits"] - old_hits
        misses = table["misses"] - old_misses
        total = hits + misses
        if not total:
            continue
        rows.append([name, hits, misses,
                     "%.1f%%" % (100.0 * hits / total), table["size"]])
    print(format_table(["op", "hits", "misses", "hit-rate", "entries"],
                       rows))
    print("(clause: the engine's clause memo; a hit is a clause run "
          "replayed with no builder work, an entry a recorded root)")
    print("(clause_text: the front-end memo; a hit is a clause text "
          "parsed, hashed and normalized before)")

    arena_now = arena.stats()
    print("\n== arena ==")
    print("grammar-compiles=%d (+%d this run)  "
          "step-indexes=%d  symbols=%d"
          % (arena_now["compiles"],
             arena_now["compiles"] - arena_before["compiles"],
             arena_now["index_builds"], arena_now["symbols"]))
    delta = {name: arena_now[name] - arena_before[name]
             for name in arena.BOUNDARY_COUNTERS}
    print("boundary (this run): grammar handles=%d decoded=%d  "
          "subst handles=%d decoded=%d  callbacks=%d (%.3fs)"
          % (delta["grammar_handles"], delta["grammar_decodes"],
             delta["subst_handles"], delta["subst_decodes"],
             delta["callbacks"], delta["callback_seconds"]))

    status = arena.kernel_status()
    print("\n== kernel tier ==")
    line = "active=%s  requested=%s" % (status["active"],
                                        status["requested"] or "auto")
    for tier, reason in sorted(status["fallbacks"].items()):
        line += "  %s-unavailable(%s)" % (tier, reason)
    print(line)
    counters = arena.kernel_counters()
    if counters:
        kernel_rows = [
            [op, cell["calls"], "%.3fs" % cell["seconds"]]
            for op, cell in sorted(counters.items(),
                                   key=lambda kv: -kv[1]["seconds"])]
        print(format_table(["kernel-op", "calls", "time"], kernel_rows))
        print("(native-tier times nest: an op's time includes the "
              "kernel ops it calls)" if status["active"] == "native"
              else "")

    print("\n== hot functions (repro code, by %s) ==" % args.sort)
    profile_stats = pstats.Stats(profiler, stream=sys.stdout)
    profile_stats.sort_stats(args.sort)
    profile_stats.print_stats(r"repro", args.top)
    return 0


# -- repro batch -------------------------------------------------------------

def batch_main(argv) -> int:
    """Analyze many workloads through the result cache."""
    from .analysis.report import format_table
    from .benchprogs import BENCHMARKS, benchmark_names
    from .fixpoint.engine import AnalysisConfig
    from .service import Job, ResultCache, jobs_from_benchmarks, run_batch

    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Analyze a batch of workloads, consulting the "
                    "content-addressed result cache before dispatching "
                    "misses (optionally over a process pool).")
    parser.add_argument("names", nargs="*",
                        help="built-in benchmark names (%s)"
                             % ", ".join(BENCHMARK_NAMES))
    parser.add_argument("--all", action="store_true",
                        help="run the whole built-in corpus")
    parser.add_argument("--file", action="append", default=[],
                        metavar="FILE:QUERY",
                        help="extra job from a Prolog file, e.g. "
                             "prog.pl:main/1 (repeatable)")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk cache directory (default: "
                             "in-memory only)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process pool size for cache misses "
                             "(default: serial)")
    parser.add_argument("--or-width", type=int, default=None)
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--json", action="store_true",
                        help="dump the report as JSON")
    args = parser.parse_args(argv)

    try:
        config = AnalysisConfig(max_or_width=args.or_width)
    except ValueError as error:
        raise UsageError(error) from None
    names = benchmark_names() if args.all else [n.upper()
                                                for n in args.names]
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        parser.error("unknown benchmarks: %s" % ", ".join(unknown))
    jobs = jobs_from_benchmarks(names, config=config,
                                baseline=args.baseline)
    for spec in args.file:
        path, _, query_text = spec.rpartition(":")
        if not path:
            parser.error("--file wants FILE:QUERY, got %r" % spec)
        try:
            with open(path) as handle:
                source = handle.read()
        except OSError as error:
            raise UsageError(error) from None
        jobs.append(Job(name=path, source=source,
                        query=parse_query(query_text), config=config,
                        baseline=args.baseline))
    if not jobs:
        parser.error("nothing to do: give benchmark names, --all, "
                     "or --file")

    cache = ResultCache(args.cache_dir)
    try:
        report = run_batch(jobs, cache, workers=args.workers)
    except (KeyError, ValueError) as error:
        raise UsageError(error.args[0]) from None

    if args.json:
        print_json({
            "hits": report.hits,
            "misses": report.misses,
            "seconds": report.seconds,
            "jobs": [{"name": r.name, "cached": r.cached,
                      "seconds": r.seconds,
                      "key": r.key.digest,
                      "result": r.payload} for r in report.results],
        })
        return 0
    rows = []
    for job_result in report.results:
        stats = job_result.payload["stats"]
        rows.append([job_result.name,
                     "hit" if job_result.cached else "miss",
                     "%.3f" % job_result.seconds,
                     stats["procedure_iterations"],
                     len(job_result.payload["entries"])])
    print(format_table(["job", "cache", "time", "proc-it", "entries"],
                       rows))
    print()
    print("%d jobs: %d cache hits, %d analyzed, %.2fs total"
          % (len(report.results), report.hits, report.misses,
             report.seconds))
    return 0


# -- repro cache -------------------------------------------------------------

def cache_main(argv) -> int:
    """Inspect and maintain the on-disk result cache."""
    from .service import ResultCache

    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect and maintain the content-addressed "
                    "analysis result cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="count stored entries")
    info.add_argument("--cache-dir", required=True)

    clear = sub.add_parser("clear", help="drop every stored entry")
    clear.add_argument("--cache-dir", required=True)

    args = parser.parse_args(argv)
    cache = ResultCache(args.cache_dir)

    if args.command == "info":
        print("%d entries under %s" % (len(cache), args.cache_dir))
        return 0
    count = len(cache)
    cache.clear()
    print("cleared %d entries" % count)
    return 0

