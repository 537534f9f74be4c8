"""Engine edge paths: budget exhaustion and unknown-predicate identity
transfer."""

import pytest

from repro import AnalysisConfig, analyze
from repro.domains.pattern import PAT_BOTTOM
from repro.fixpoint.engine import AnalysisBudgetExceeded
from repro.typegraph.grammar import g_any, g_atom


# -- AnalysisBudgetExceeded --------------------------------------------------

def test_budget_exceeded_raises(nreverse_source):
    config = AnalysisConfig(max_procedure_iterations=1)
    with pytest.raises(AnalysisBudgetExceeded):
        analyze(nreverse_source, ("nreverse", 2), config=config)


def test_budget_message_names_the_limit(nreverse_source):
    config = AnalysisConfig(max_procedure_iterations=2)
    with pytest.raises(AnalysisBudgetExceeded, match="2"):
        analyze(nreverse_source, ("nreverse", 2), config=config)


def test_default_budget_is_not_hit(nreverse_source):
    analysis = analyze(nreverse_source, ("nreverse", 2))
    assert analysis.stats.procedure_iterations < \
        AnalysisConfig().max_procedure_iterations


# -- unknown predicates: identity transfer -----------------------------------

def test_unknown_predicate_is_recorded():
    analysis = analyze("p(X) :- mystery(X).", ("p", 1))
    assert analysis.result.unknown_predicates == [("mystery", 1)]


def test_unknown_call_preserves_established_types():
    """Identity transfer keeps what held before the call: X was surely
    the atom ``a`` going in, and still is coming out."""
    analysis = analyze("q(a).\np(X) :- q(X), mystery(X).", ("p", 1))
    assert analysis.result.unknown_predicates == [("mystery", 1)]
    assert analysis.output_grammar(0) == g_atom("a")


def test_unknown_call_does_not_invent_types():
    """An unknown call alone must claim nothing: the argument stays at
    Any, exactly as with a defined identity predicate."""
    unknown = analyze("p(X) :- mystery(X).", ("p", 1))
    identity = analyze("id(X).\np(X) :- id(X).", ("p", 1))
    assert unknown.output_grammar(0) == g_any()
    assert identity.output_grammar(0) == g_any()


def test_failing_builtin_yields_bottom():
    analysis = analyze("p(X) :- fail.", ("p", 1))
    assert analysis.output is PAT_BOTTOM

