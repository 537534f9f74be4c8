"""The CLI's analysis pipeline, re-run from the program's public
functions with a span around each layer.

``repro FILE QUERY --json`` is read -> parse -> normalize -> fixpoint
-> encode -> dump; ``repro check`` adds harvesting the assertion
directives and checking them.  This module makes the same calls in the
same order, so the traced run can say where a CLI call spends its
time without instrumenting the program itself.
"""

from __future__ import annotations

import json
from typing import Callable, Optional, Sequence, Tuple

from repro import TypeAnalysis, make_input_pattern, parse_program
from repro.assertions import check_analysis, harvest_assertions
from repro.domains.leaf import TypeLeafDomain
from repro.fixpoint.engine import AnalysisConfig, Engine
from repro.prolog.normalize import normalize_program
from repro.service.serialize import (check_fingerprint, encode_check,
                                     encode_result, program_hash)
from repro.typegraph import arena

#: Engine counters carried from ``AnalysisStats`` into the trace.
STAT_FIELDS = ("procedure_iterations", "clause_iterations",
               "clause_iterations_skipped", "entries_created",
               "opcache_hits", "opcache_misses", "arena_compiles")


def kernel_calls() -> int:
    return sum(cell["calls"] for cell in arena.kernel_counters().values())


def cli_dump(obj: dict) -> str:
    """The CLI's ``--json`` rendering."""
    return json.dumps(obj, indent=2, sort_keys=True)


def run(spans, source: str, query: Tuple[str, int],
        input_types: Optional[Sequence[str]], check: bool,
        dump: Callable[[dict], str] = cli_dump,
        rid: Optional[str] = None) -> Tuple[str, int, dict]:
    """(the text ``dump`` renders the output as, the CLI's exit code,
    counters); spans carry request id ``rid``."""
    calls_before = kernel_calls()
    if check:
        with spans.span("assertions.harvest", rid):
            assertions = tuple(harvest_assertions(parse_program(source)))
        config = AnalysisConfig(keep_deps=True, assertions=assertions)
    else:
        config = AnalysisConfig()
    with spans.span("prolog.parse", rid):
        program = parse_program(source)
    with spans.span("prolog.normalize", rid):
        norm = normalize_program(program)
    with spans.span("fixpoint.analyze", rid):
        domain = TypeLeafDomain(config.max_or_width, config.type_database)
        engine = Engine(norm, domain, config)
        beta_in = (make_input_pattern(domain, input_types)
                   if input_types is not None else None)
        result = engine.analyze(query, beta_in)
    if check:
        analysis = TypeAnalysis(program, norm, query, domain, result, 0.0)
        with spans.span("assertions.check", rid):
            report, slices = check_analysis(analysis, assertions,
                                            with_slices=True)
        with spans.span("serialize.encode", rid):
            encoded = encode_check(report, slices)
            obj = {"name": "CHK", "query": list(query), "check": encoded,
                   "check_fingerprint": check_fingerprint(encoded),
                   "passed": report.ok}
        code = 0 if report.ok else 1
    else:
        with spans.span("serialize.encode", rid):
            obj = {"query": list(query),
                   "program_hash": program_hash(program),
                   "wall_time": 0.0,
                   "result": encode_result(result)}
        code = 0
    with spans.span("serialize.dump", rid):
        text = dump(obj)
    counters = {field: getattr(result.stats, field, 0)
                for field in STAT_FIELDS}
    counters["kernel_calls"] = kernel_calls() - calls_before
    counters["payload_bytes"] = len(text)
    return text, code, counters
