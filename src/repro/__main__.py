"""Command-line interface: ``repro FILE QUERY`` (also reachable as
``python -m repro``).

Examples::

    repro program.pl nreverse/2
    repro program.pl 'append/3' --input list,list,any --json
    repro --benchmark QU
    repro program.pl main/1 --baseline --or-width 5 --tags
    repro check annotated.pl main/1
    repro check --benchmark CHK --json
    repro batch --all --cache-dir .repro-cache --workers 4
    repro cache info --cache-dir .repro-cache
    repro profile --benchmark RE --top 20
    repro serve --port 7871 --cache-dir .repro-cache
    repro router --spawn 4 --cache-dir .repro-cache --replicate 2
    repro router --fleet fleet.json
    repro router --fleet fleet.json --sync-from 10.0.0.1:7870
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .analysis.analyzer import analyze
from .domains.pattern import PAT_BOTTOM
from .fixpoint.engine import AnalysisConfig

#: The ``--benchmark`` names, spelled out so that printing the help
#: does not import the benchmark corpus (a test keeps it in step with
#: ``repro.benchprogs.BENCHMARKS``).
BENCHMARK_NAMES = ("AR", "AR1", "BR", "CHK", "CS", "DS", "KA", "LDS",
                   "LPE", "LPL", "PE", "PG", "PL", "PR", "QU", "RE")

_SUBCOMMANDS = ("check", "batch", "cache", "profile", "serve", "router")

#: Commands that analyze one program and exit: :func:`entry` runs them
#: with the cyclic GC paused and skips the interpreter's teardown.
_ONE_SHOT = ("analyze", "check", "profile")


class UsageError(Exception):
    """A bad argument or unreadable input: ``error: ...`` on stderr and
    exit status 2."""


def _benchmark_help(verb: str) -> str:
    return "%s a built-in benchmark (%s)" % (verb,
                                             ", ".join(BENCHMARK_NAMES))


def _parse_query(text: str):
    name, _, arity = text.rpartition("/")
    if not name or not arity:
        raise SystemExit("query must look like name/arity, got %r" % text)
    try:
        arity_value = int(arity)
    except ValueError:
        raise SystemExit("query arity must be an integer, got %r in %r"
                         % (arity, text)) from None
    if arity_value < 0:
        raise SystemExit("query arity must be >= 0, got %d" % arity_value)
    return (name, arity_value)


def _check_input_arity(input_types, query) -> None:
    """A clean exit when ``--input`` does not match the query arity."""
    if input_types is not None and len(input_types) != query[1]:
        raise SystemExit(
            "error: --input lists %d type(s) but %s/%d takes %d "
            "argument(s)" % (len(input_types), query[0], query[1],
                             query[1]))


def _workload(args, parser):
    """(name, source, query, input types) of the one program named by
    ``FILE QUERY`` or ``--benchmark``, with ``--input`` applied."""
    if args.benchmark:
        from .benchprogs import BENCHMARKS
        bp = BENCHMARKS.get(args.benchmark.upper())
        if bp is None:
            parser.error("unknown benchmark %r (expected one of %s)"
                         % (args.benchmark, ", ".join(BENCHMARK_NAMES)))
        name, source = bp.name, bp.source
        query, input_types = bp.query, bp.input_types
    else:
        if not args.file or not args.query:
            parser.error("either FILE QUERY or --benchmark is required")
        try:
            with open(args.file) as handle:
                source = handle.read()
        except OSError as error:
            raise UsageError(error) from None
        name, query, input_types = args.file, _parse_query(args.query), None
    if args.input:
        input_types = [t.strip() for t in args.input.split(",")]
    _check_input_arity(input_types, query)
    return name, source, query, input_types


def _print_json(obj) -> None:
    """A ``--json`` output: compact, with sorted keys, through the C
    encoder (``indent`` would fall back to the pure-Python one)."""
    from .service.serialize import canonical_json
    print(canonical_json(obj))


def _command(argv) -> str:
    return argv[0] if argv and argv[0] in _SUBCOMMANDS else "analyze"


def main(argv=None) -> int:
    """Run one CLI command in this process and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    command = _command(argv)
    if command == "serve":
        from .service.server import serve_main
        return serve_main(argv[1:])
    if command == "router":
        from .service.cluster import router_main
        return router_main(argv[1:])
    run = {"analyze": analyze_main, "check": check_main,
           "batch": batch_main, "cache": cache_main,
           "profile": profile_main}[command]
    try:
        return run(argv if command == "analyze" else argv[1:])
    except UsageError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


def entry() -> None:
    """The process entry point of ``python -m repro`` and the ``repro``
    script: run :func:`main` on ``sys.argv`` and exit with its code.

    A one-shot command runs with the cyclic GC paused, since the few
    cycles it makes die with the process anyway, and ends with
    ``os._exit`` once its output is flushed, which skips tearing down
    a heap nothing will read again.  If the reader of the output goes
    away first, the command ends quietly with status 1.  The other
    commands exit normally.  :func:`main` does neither, so in-process
    callers keep a normal interpreter.
    """
    argv = sys.argv[1:]
    if _command(argv) not in _ONE_SHOT:
        sys.exit(main(argv))
    gc.disable()
    try:
        try:
            code = main(argv)
        except SystemExit as stop:
            code = _exit_status(stop.code)
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


def _exit_status(code) -> int:
    """The status ``sys.exit(code)`` ends a process with, printing a
    message ``code`` to stderr as it would."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)
    return 1


def analyze_main(argv) -> int:
    """``repro FILE QUERY``: analyze one program and print the query's
    success types (or, with ``--json``, the serialized result)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Type analysis of Prolog using type graphs "
                    "(Van Hentenryck, Cortesi, Le Charlier, PLDI'94).  "
                    "Subcommands: 'repro batch' analyzes many programs "
                    "through the result cache; 'repro cache' inspects "
                    "and maintains it; 'repro check' verifies "
                    "assert_* directives and blame-slices violations; "
                    "'repro serve' runs the long-lived analysis "
                    "server; 'repro profile' reports per-operation "
                    "statistics.")
    parser.add_argument("file", nargs="?",
                        help="Prolog source file to analyze")
    parser.add_argument("query", nargs="?",
                        help="query predicate as name/arity")
    parser.add_argument("--benchmark", metavar="NAME",
                        help=_benchmark_help("analyze"))
    parser.add_argument("--input", metavar="TYPES",
                        help="comma-separated input types per argument "
                             "(any, list, int, codes)")
    parser.add_argument("--baseline", action="store_true",
                        help="use the principal-functor baseline domain")
    parser.add_argument("--or-width", type=int, default=None,
                        help="or-degree restriction (Table 3's 5 / 2)")
    parser.add_argument("--tags", action="store_true",
                        help="print input/output tags for every "
                             "analyzed predicate")
    parser.add_argument("--all-predicates", action="store_true",
                        help="print grammars for every analyzed "
                             "predicate, not just the query")
    parser.add_argument("--json", action="store_true",
                        help="dump the serialized analysis result as "
                             "JSON instead of the human-readable report")
    args = parser.parse_args(argv)
    _, source, query, input_types = _workload(args, parser)

    config = AnalysisConfig(max_or_width=args.or_width)
    try:
        analysis = analyze(source, query, input_types=input_types,
                           config=config, baseline=args.baseline)
    except SyntaxError as error:  # ParseError, TokenizeError
        raise UsageError(error) from None
    except (KeyError, ValueError) as error:
        raise SystemExit("error: %s" % (error.args[0],))

    if args.json:
        from .service.serialize import encode_result, program_hash
        _print_json({
            "query": list(query),
            "program_hash": program_hash(analysis.program),
            "wall_time": analysis.wall_time,
            "result": encode_result(analysis.result),
        })
        return 0
    if args.baseline:
        print("(principal-functor baseline domain)")
    if analysis.output is PAT_BOTTOM:
        print("%s/%d has no derivable success pattern" % query)
    else:
        print(analysis.grammar_text())
    if args.all_predicates:
        for pred in analysis.analyzed_predicates():
            if pred != query:
                print()
                print(analysis.grammar_text(pred=pred))
    if args.tags:
        print()
        rows = []
        out_tags = analysis.output_tags()
        in_tags = analysis.input_tags()
        for pred in sorted(out_tags):
            rows.append(["%s/%d" % pred,
                         " ".join(t or "-" for t in in_tags.get(pred, [])),
                         " ".join(t or "-" for t in out_tags[pred])])
        from .analysis.report import format_table
        print(format_table(["predicate", "input tags", "output tags"],
                           rows))
    print()
    print("time %.2fs, %d procedure iterations, %d clause iterations "
          "(%d skipped, %d resumed), %d entries"
          % (analysis.wall_time, analysis.stats.procedure_iterations,
             analysis.stats.clause_iterations,
             analysis.stats.clause_iterations_skipped,
             analysis.stats.callsite_resumptions,
             analysis.stats.entries_created))
    if analysis.result.unknown_predicates:
        print("warning: unknown predicates treated as identity: %s"
              % ", ".join("%s/%d" % p
                          for p in analysis.result.unknown_predicates))
    if analysis.stats.disjunction_fallbacks:
        print("warning: %d oversized disjunction(s) compiled to "
              "auxiliary predicates" % analysis.stats.disjunction_fallbacks)
    return 0


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
                        help=_benchmark_help("check"))
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
    name, source, query, input_types = _workload(args, parser)

    try:
        assertions = tuple(harvest_assertions(parse_program(source)))
    except AssertionSyntaxError as error:
        raise UsageError("bad assertion directive: %s" % error) from None
    except SyntaxError as error:  # ParseError, TokenizeError
        raise UsageError(error) from None
    except (KeyError, ValueError) as error:
        raise UsageError(error.args[0]) from None

    config = AnalysisConfig(max_or_width=args.or_width,
                            keep_deps=True, assertions=assertions)
    try:
        analysis = analyze(source, query, input_types=input_types,
                           config=config, baseline=args.baseline)
        report, slices = check_analysis(
            analysis, assertions, with_slices=not args.no_slices)
    except (KeyError, ValueError) as error:
        raise UsageError(error.args[0]) from None

    if args.json:
        check = encode_check(report, slices)
        _print_json({
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

    The point (PR 4): perf work should start from data.  Reports wall
    time, the cProfile hot spots inside ``repro``, per-operation memo
    traffic (hits/misses/hit rate for every opcache table), and arena
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
                        help=_benchmark_help("profile"))
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
    _, source, query, input_types = _workload(args, parser)

    # Fresh counters so the report attributes traffic to this run only
    # (cached *results* are kept — a warm service process profiles as
    # the warm process it is).
    before = {cache.name: (cache.hits, cache.misses)
              for cache in opcache.caches()}
    arena_before = arena.stats()

    config = AnalysisConfig(max_or_width=args.or_width)
    profiler = cProfile.Profile()
    arena.reset_kernel_counters()
    arena.profile_kernels(True)
    profiler.enable()
    try:
        analysis = analyze(source, query, input_types=input_types,
                           config=config, baseline=args.baseline)
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

    arena_now = arena.stats()
    print("\n== arena ==")
    print("enabled=%s  grammar-compiles=%d (+%d this run)  "
          "step-indexes=%d  symbols=%d"
          % (arena.enabled(), arena_now["compiles"],
             arena_now["compiles"] - arena_before["compiles"],
             arena_now["index_builds"], arena_now["symbols"]))

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

    config = AnalysisConfig(max_or_width=args.or_width)
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
        with open(path) as handle:
            source = handle.read()
        jobs.append(Job(name=path, source=source,
                        query=_parse_query(query_text), config=config,
                        baseline=args.baseline))
    if not jobs:
        parser.error("nothing to do: give benchmark names, --all, "
                     "or --file")

    cache = ResultCache(args.cache_dir)
    try:
        report = run_batch(jobs, cache, workers=args.workers)
    except (KeyError, ValueError) as error:
        raise SystemExit("error: %s" % (error.args[0],))

    if args.json:
        _print_json({
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


if __name__ == "__main__":
    entry()
