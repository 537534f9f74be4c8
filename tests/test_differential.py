"""Unit tests for differential re-evaluation: knobs, counters, stale
dependency pruning, and the SCC scheduler.

Tests that compare two analyses run each side cold
(:func:`cold_analyze` empties the memos first), so both sides really
execute instead of one replaying what the other recorded."""

import pytest

from repro import analyze
from repro.benchprogs import benchmark
from repro.fixpoint.engine import AnalysisConfig, Engine
from repro.prolog.normalize import normalize_program
from repro.prolog.program import parse_program
from repro.service.serialize import result_fingerprint
from repro.typegraph import opcache

NREV = """
nreverse([], []).
nreverse([H|T], R) :- nreverse(T, RT), concatenate(RT, [H], R).
concatenate([], L, L).
concatenate([X|L1], L2, [X|L3]) :- concatenate(L1, L2, L3).
"""


def cold_analyze(*args, **kwargs):
    """:func:`repro.analyze` with every memo emptied first."""
    opcache.clear()
    return analyze(*args, **kwargs)


def _engine(source, **config):
    norm = normalize_program(parse_program(source))
    return Engine(norm, config=AnalysisConfig(**config))


# -- knobs -------------------------------------------------------------------

def test_differential_default_on():
    engine = _engine(NREV)
    assert engine.differential is True
    assert engine.scheduler == "lifo"


def test_differential_config_off():
    analysis = analyze(NREV, ("nreverse", 2),
                       config=AnalysisConfig(differential=False))
    assert analysis.stats.clause_iterations_skipped == 0
    assert analysis.stats.callsite_resumptions == 0


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="unknown scheduler"):
        _engine(NREV, scheduler="fifo")


# -- counters ----------------------------------------------------------------

def test_skipping_and_resumption_happen():
    analysis = cold_analyze(NREV, ("nreverse", 2))
    stats = analysis.stats
    assert stats.clause_iterations_skipped > 0
    assert stats.callsite_resumptions > 0
    assert stats.scheduler == "lifo"


def test_differential_reduces_clause_work_benchmarks():
    for name in ("QU", "PE"):
        bp = benchmark(name)
        on = cold_analyze(bp.source, bp.query, input_types=bp.input_types)
        off = cold_analyze(bp.source, bp.query,
                           input_types=bp.input_types,
                           config=AnalysisConfig(differential=False))
        assert on.stats.clause_iterations < off.stats.clause_iterations
        assert result_fingerprint(on.result) == \
            result_fingerprint(off.result)


# -- stale dependency pruning -------------------------------------------------

# Forces input-pattern widening on q/1 (max_input_patterns below the
# number of distinct call patterns), so early q-entries are superseded
# by a general entry and the call sites re-resolve.
MANY_PATTERNS = """
q(a). q(b). q(c). q(d). q(e).
top(X) :- q(a), q(b), q(c), q(d), q(e), q(X).
"""


def test_callsite_rebinding_prunes_stale_edges():
    norm = normalize_program(parse_program(MANY_PATTERNS))
    engine = Engine(norm, config=AnalysisConfig(max_input_patterns=2))
    result = engine.analyze(("top", 1))
    assert result.stats.input_widenings > 0
    top_ids = {e.id for e in result.entries if e.pred == ("top", 1)}
    for entry in result.entries:
        if entry.pred != ("q", 1):
            continue
        # an entry only keeps a caller in `dependents` while some call
        # site still resolves to it
        callsite_callers = {caller for caller, _, _ in
                            engine._callsite_deps.get(entry.id, ())}
        assert entry.dependents & top_ids <= callsite_callers


def test_widened_run_matches_full_mode():
    config = AnalysisConfig(max_input_patterns=2)
    on = cold_analyze(MANY_PATTERNS, ("top", 1), config=config)
    off = cold_analyze(MANY_PATTERNS, ("top", 1),
                       config=AnalysisConfig(max_input_patterns=2,
                                             differential=False))
    assert result_fingerprint(on.result) == result_fingerprint(off.result)


# -- self-edges ---------------------------------------------------------------

SELF = """
loop([]).
loop([_|T]) :- loop(T).
"""


def test_self_recursion_converges_and_matches():
    on = cold_analyze(SELF, ("loop", 1))
    off = cold_analyze(SELF, ("loop", 1),
                       config=AnalysisConfig(differential=False))
    assert result_fingerprint(on.result) == result_fingerprint(off.result)
    # the differential engine never schedules more work than full mode
    assert on.stats.procedure_iterations <= off.stats.procedure_iterations


# -- SCC scheduler ------------------------------------------------------------

def test_scc_scheduler_runs_and_reports():
    bp = benchmark("QU")
    scc = cold_analyze(bp.source, bp.query, input_types=bp.input_types,
                       config=AnalysisConfig(scheduler="scc"))
    lifo = cold_analyze(bp.source, bp.query, input_types=bp.input_types)
    assert scc.stats.scheduler == "scc"
    # driving callee SCCs to a local fixpoint first saves caller
    # iterations on the benchmark programs
    assert scc.stats.procedure_iterations <= lifo.stats.procedure_iterations
    assert scc.result.output is not None


def test_scc_differential_invariant():
    bp = benchmark("PE")
    on = cold_analyze(bp.source, bp.query, input_types=bp.input_types,
                      config=AnalysisConfig(scheduler="scc"))
    off = cold_analyze(bp.source, bp.query, input_types=bp.input_types,
                       config=AnalysisConfig(scheduler="scc",
                                             differential=False))
    assert result_fingerprint(on.result) == result_fingerprint(off.result)
