"""Argument helpers shared by the CLI's commands: the usage-error
type, query parsing, the one-program workload of ``FILE QUERY`` or
``--benchmark``, and the ``--json`` printer.

They live apart from :mod:`repro.__main__` because ``python -m repro``
runs that file as ``__main__``: a command module importing
``repro.__main__`` would load a second copy with its own
:class:`UsageError`, which :func:`repro.__main__.main` would not catch.
"""

from __future__ import annotations

#: The ``--benchmark`` names, spelled out so that printing the help
#: does not import the benchmark corpus (a test keeps it in step with
#: ``repro.benchprogs.BENCHMARKS``).
BENCHMARK_NAMES = ("AR", "AR1", "BR", "CHK", "CS", "DS", "KA", "LDS",
                   "LPE", "LPL", "PE", "PG", "PL", "PR", "QU", "RE")


class UsageError(Exception):
    """A bad argument or unreadable input: ``error: ...`` on stderr and
    exit status 2."""


def benchmark_help(verb: str) -> str:
    return "%s a built-in benchmark (%s)" % (verb,
                                             ", ".join(BENCHMARK_NAMES))


def parse_query(text: str):
    """``name/arity`` as ``(name, arity)``; a :class:`UsageError` for
    anything else."""
    name, _, arity = text.rpartition("/")
    if not name or not arity:
        raise UsageError("query must look like name/arity, got %r" % text)
    try:
        arity_value = int(arity)
    except ValueError:
        raise UsageError("query arity must be an integer, got %r in %r"
                         % (arity, text)) from None
    if arity_value < 0:
        raise UsageError("query arity must be >= 0, got %d" % arity_value)
    return (name, arity_value)


def workload(args, parser):
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
        query = parse_query(args.query)
        try:
            with open(args.file) as handle:
                source = handle.read()
        except OSError as error:
            raise UsageError(error) from None
        name, input_types = args.file, None
    if args.input:
        input_types = [t.strip() for t in args.input.split(",")]
    if input_types is not None and len(input_types) != query[1]:
        raise UsageError(
            "--input lists %d type(s) but %s/%d takes %d argument(s)"
            % (len(input_types), query[0], query[1], query[1]))
    return name, source, query, input_types


def analyze_workload(source, query, input_types, baseline: bool,
                     **settings):
    """The analysis of one CLI workload under
    ``AnalysisConfig(**settings)``.  A program that does not parse, an
    undefined query predicate, an unknown input type or a bad setting
    is a :class:`UsageError`."""
    from .analysis.analyzer import analyze
    from .fixpoint.engine import AnalysisConfig
    try:
        return analyze(source, query, input_types=input_types,
                       config=AnalysisConfig(**settings),
                       baseline=baseline)
    except SyntaxError as error:  # ParseError, TokenizeError
        raise UsageError(error) from None
    except (KeyError, ValueError) as error:
        raise UsageError(error.args[0]) from None


def print_json(obj) -> None:
    """A ``--json`` output: compact, with sorted keys, through the C
    encoder (``indent`` would fall back to the pure-Python one)."""
    from .service.serialize import canonical_json
    print(canonical_json(obj))
