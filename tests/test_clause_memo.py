"""The clause memo (see :mod:`repro.fixpoint.engine`): re-analysis
replays recorded clause executions, and a warm analysis is
indistinguishable from a cold one — its table, entries, dependency
edges, unknown predicates, iteration counters and call-site
resumptions all equal the cold run's, on every kernel tier.

Every comparison empties the memos (:func:`opcache.clear`) before the
cold side, so that side really executes.
"""

import pytest
from hypothesis import given, settings

from repro import analyze
from repro.analysis.analyzer import make_input_pattern
from repro.assertions import check_analysis, harvest_assertions
from repro.benchprogs import benchmark, benchmark_names
from repro.domains.pattern import AbstractSubst, PatNode, subst_top
from repro.domains.leaf import TypeLeafDomain
from repro.fixpoint.engine import AnalysisConfig, Engine
from repro.prolog.normalize import normalize_program
from repro.prolog.program import parse_program
from repro.service.serialize import encode_check, encode_result
from repro.typegraph import arena, g_any, g_list_of, opcache

from test_differential_properties import programs

MEMO = opcache.cache_for("clause")

#: Payload stats a warm run may change: timing, and what the memos
#: and the arena compile (a warm process finds them made).
VARIANT_STATS = ("cpu_time", "opcache_hits", "opcache_misses",
                 "arena_compiles")


@pytest.fixture(params=arena.available_kernels())
def tier(request):
    """Run the test on each kernel tier, then put the requested tier
    back."""
    requested = arena.kernel_status()["requested"]
    arena.configure(kernel=request.param)
    yield request.param
    arena.configure(kernel=requested)


def observable(analysis) -> dict:
    """Everything an analysis reports but timing and cache counters:
    the entries (β_in, β_out, dependents, update and iteration counts),
    the leaf table, the root, the unknown predicates and the stats."""
    payload = encode_result(analysis.result)
    payload["stats"] = {name: value
                        for name, value in payload["stats"].items()
                        if name not in VARIANT_STATS}
    return payload


def unrecorded(source, query, input_types=None, config=None):
    """The analysis with the clause memo switched off, so every clause
    run executes: the reference both sides must equal."""
    config = AnalysisConfig() if config is None else config
    domain = TypeLeafDomain(config.max_or_width, config.type_database)
    engine = Engine(normalize_program(parse_program(source)), domain,
                    config)
    engine._memo = None
    beta_in = (None if input_types is None
               else make_input_pattern(domain, input_types))
    return engine.analyze(query, beta_in)


def same_table(analysis, reference) -> None:
    """``analysis`` reports what the unrecorded ``reference`` does."""
    result = analysis.result
    assert encode_result(result)["entries"] == \
        encode_result(reference)["entries"]
    assert result.unknown_predicates == reference.unknown_predicates
    for counter in ("procedure_iterations", "clause_iterations",
                    "clause_iterations_skipped", "callsite_resumptions",
                    "entries_created", "input_widenings"):
        assert getattr(analysis.stats, counter) == \
            getattr(reference.stats, counter), counter


def memo_traffic(run):
    """``(result of run(), clause memo hits, clause memo misses)``."""
    hits, misses = MEMO.hits, MEMO.misses
    out = run()
    return out, MEMO.hits - hits, MEMO.misses - misses


def cold_then_warm(source, query, warm_source=None, **options):
    """A cold analysis (memos emptied first), then the same workload
    warm — on ``warm_source`` if given, as a served edit would — with
    the warm run's clause memo traffic."""
    opcache.clear()
    cold = analyze(source, query, **options)
    warm, hits, misses = memo_traffic(lambda: analyze(
        source if warm_source is None else warm_source, query, **options))
    return cold, warm, hits, misses


@pytest.mark.parametrize("name", benchmark_names())
def test_every_builtin_program_replays_to_its_cold_run(tier, name):
    bp = benchmark(name)
    cold, warm, hits, misses = cold_then_warm(
        bp.source, bp.query, bp.source + "\nzz_memo_edit(1).\n",
        input_types=bp.input_types)
    same_table(cold, unrecorded(bp.source, bp.query, bp.input_types))
    assert observable(warm) == observable(cold)
    assert warm.stats.callsite_resumptions == \
        cold.stats.callsite_resumptions
    # every clause run of the warm analysis is a replay
    assert (hits, misses) == (warm.stats.clause_iterations, 0)


def _chk(keep_deps=True):
    bp = benchmark("CHK")
    assertions = tuple(harvest_assertions(parse_program(bp.source)))
    analysis = analyze(bp.source, bp.query, input_types=bp.input_types,
                       config=AnalysisConfig(keep_deps=keep_deps,
                                             assertions=assertions))
    report, slices = check_analysis(analysis, assertions)
    return analysis, encode_check(report, slices)


def test_check_verdicts_and_blame_slices_are_unchanged_warm(tier):
    opcache.clear()
    cold, cold_check = _chk()
    (warm, warm_check), hits, misses = memo_traffic(_chk)
    assert warm_check == cold_check
    assert [v["status"] for v in warm_check["verdicts"]].count(
        "violated") == 1
    assert warm_check["slices"]
    for graph in ("callsite_deps", "clause_callees", "clause_reached",
                  "call_positions"):
        assert getattr(warm.result, graph) == getattr(cold.result, graph)
    assert observable(warm) == observable(cold)
    assert hits > 0 and misses == 0


# One clause text, ``p(X) :- q(X), r(X).``, over callees that differ
# from program to program, or are not defined at all.
SHARED_CLAUSE = "p(X) :- q(X), r(X).\n"
CALLEE_VARIANTS = {
    "q-atoms": "q(a). q(b). r(a).\n",
    "q-lists": "q([]). q([_|T]) :- q(T). r([]).\n",
    "q-same-output": "q(b). q(a). r(a).\n",
    "r-undefined": "q(a).\n",
    "both-undefined": "",
}


def test_a_shared_clause_text_follows_each_program_s_callees(tier):
    cold = {}
    for name, callees in CALLEE_VARIANTS.items():
        opcache.clear()
        cold[name] = observable(analyze(SHARED_CLAUSE + callees,
                                        ("p", 1)))
    opcache.clear()
    for _ in range(2):
        for name, callees in CALLEE_VARIANTS.items():
            warm = observable(analyze(SHARED_CLAUSE + callees, ("p", 1)))
            assert warm == cold[name], name
    assert cold["r-undefined"]["unknown_predicates"] == [["r", 1]]
    assert cold["both-undefined"]["unknown_predicates"] == \
        [["q", 1], ["r", 1]]


NREV = """
nreverse([], []).
nreverse([H|T], R) :- nreverse(T, RT), concatenate(RT, [H], R).
concatenate([], L, L).
concatenate([X|L1], L2, [X|L3]) :- concatenate(L1, L2, L3).
"""


# ``chain/3`` reads ``third/3`` after two other call sites, so an edit
# of ``third/3`` makes the warm run leave the trie there and rebuild a
# prefix that applies two recorded callee outputs.
CHAIN = """
chain(A, B, C) :- first(A), second(B), third(A, B, C).
first(a).
first(b).
second([]).
second([_|T]) :- second(T).
third(X, Y, f(X, Y)).
"""


@pytest.mark.parametrize("program, query, edit", [
    (NREV, ("nreverse", 2), "concatenate(a, b, c).\n"),
    (CHAIN, ("chain", 3), "third(X, Y, g(Y, X)).\n"),
], ids=["nreverse", "chain"])
def test_an_edited_callee_reuses_the_clauses_it_does_not_reach(
        tier, program, query, edit):
    """Editing a callee changes its outputs, so a clause calling it
    leaves the trie at that call; the clauses that never reach it, and
    every clause up to the call, still replay."""
    edited = program + edit
    opcache.clear()
    analyze(program, query)
    warm, hits, misses = memo_traffic(lambda: analyze(edited, query))
    same_table(warm, unrecorded(edited, query))
    assert hits > 0 and misses > 0


@pytest.mark.parametrize("config", [
    AnalysisConfig(differential=False),
    AnalysisConfig(scheduler="scc"),
    AnalysisConfig(differential=False, scheduler="scc"),
    AnalysisConfig(max_or_width=2),
], ids=["full", "scc", "full-scc", "or-width-2"])
@pytest.mark.parametrize("name", ["QU", "PG", "PL", "BR"])
def test_other_engine_configurations_replay(tier, config, name):
    bp = benchmark(name)
    cold, warm, hits, misses = cold_then_warm(
        bp.source, bp.query, input_types=bp.input_types, config=config)
    assert observable(warm) == observable(cold)
    assert (hits, misses) == (warm.stats.clause_iterations, 0)


def test_full_and_differential_runs_share_recordings():
    """The memo keys on nothing differential-specific: a full run
    replays what a differential run recorded, and the table agrees."""
    opcache.clear()
    full = analyze(NREV, ("nreverse", 2),
                   config=AnalysisConfig(differential=False))
    opcache.clear()
    analyze(NREV, ("nreverse", 2))
    warm, hits, _ = memo_traffic(lambda: analyze(
        NREV, ("nreverse", 2), config=AnalysisConfig(differential=False)))
    assert observable(warm) == observable(full)
    assert hits > 0


def test_a_type_database_domain_records_nothing():
    bp = benchmark("PG")
    opcache.clear()
    config = AnalysisConfig(type_database=[g_list_of(g_any())])
    analysis, hits, misses = memo_traffic(lambda: analyze(
        bp.source, bp.query, input_types=bp.input_types, config=config))
    assert not analysis.domain.shared_did
    assert (len(MEMO), hits, misses) == (0, 0, 0)


def test_clear_empties_the_memo():
    bp = benchmark("QU")
    analyze(bp.source, bp.query, input_types=bp.input_types)
    assert len(MEMO) > 0
    opcache.clear()
    assert len(MEMO) == 0


def test_a_non_interned_input_replays_its_interned_twin(tier):
    """A caller may hand the python tier a β_in it built itself; the
    memo keys it by structure, so it replays what its interned twin
    recorded (the native tier takes interned substitutions only)."""
    if tier != "python":
        pytest.skip("the native kernels take interned substitutions")
    norm = normalize_program(parse_program(NREV))
    domain = TypeLeafDomain()
    top = subst_top(2, domain)
    raw = AbstractSubst(2, top.sv, tuple(PatNode(value=node.value)
                                         for node in top.nodes))
    assert not raw.interned
    opcache.clear()
    cold = Engine(norm, domain).analyze(("nreverse", 2), top)
    warm, hits, misses = memo_traffic(
        lambda: Engine(norm, domain).analyze(("nreverse", 2), raw))
    assert [(e.pred, e.beta_out) for e in warm.entries] == \
        [(e.pred, e.beta_out) for e in cold.entries]
    assert (hits, misses) == (warm.stats.clause_iterations, 0)
    assert warm.stats.callsite_resumptions == \
        cold.stats.callsite_resumptions


@given(programs(), programs())
@settings(max_examples=40, deadline=None)
def test_analysing_b_after_a_equals_analysing_b_cold(a, b):
    source_b, query_b = b
    opcache.clear()
    cold = analyze(source_b, query_b)
    same_table(cold, unrecorded(source_b, query_b))
    opcache.clear()
    analyze(*a)
    warm = analyze(source_b, query_b)
    assert observable(warm) == observable(cold)
