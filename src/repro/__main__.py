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

This module is the entry point and the analyze command.  The other
commands load only when they run: ``check``, ``profile``, ``batch``
and ``cache`` from :mod:`repro.commands`, ``serve`` and ``router``
from :mod:`repro.service`.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .cliutil import (BENCHMARK_NAMES, UsageError, analyze_workload,
                      benchmark_help, print_json, workload)
from .domains.pattern import PAT_BOTTOM

__all__ = ["BENCHMARK_NAMES", "UsageError", "main", "entry",
           "analyze_main"]

_SUBCOMMANDS = ("check", "batch", "cache", "profile", "serve", "router")

#: Commands that analyze one program and exit: :func:`entry` runs them
#: with the cyclic GC paused and skips the interpreter's teardown.
_ONE_SHOT = ("analyze", "check", "profile")


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
    if command == "analyze":
        run = analyze_main
    else:
        from . import commands
        run = getattr(commands, command + "_main")
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
                        help=benchmark_help("analyze"))
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
    _, source, query, input_types = workload(args, parser)
    analysis = analyze_workload(source, query, input_types, args.baseline,
                                max_or_width=args.or_width)

    if args.json:
        from .service.serialize import encode_result, program_hash
        print_json({
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


if __name__ == "__main__":
    entry()
