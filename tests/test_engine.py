"""Unit tests for the fixpoint engine."""

import pytest

from repro.domains import display_subst
from repro.domains.pattern import PAT_BOTTOM
from repro.fixpoint import AnalysisConfig, Engine
from repro.prolog import normalize_program, parse_program
from repro.typegraph import g_atom, g_equiv, g_int, g_le, g_list_of, g_union
from repro.domains.pattern import value_of


def run(src, pred, **config):
    norm = normalize_program(parse_program(src))
    engine = Engine(norm, config=AnalysisConfig(**config))
    return engine.analyze(pred), engine


def out_grammar(result, engine, arg):
    subst = result.output
    assert subst is not PAT_BOTTOM
    return value_of(subst, subst.sv[arg], engine.domain, {})


class TestFacts:
    def test_single_fact(self):
        result, engine = run("p(a).", ("p", 1))
        assert g_equiv(out_grammar(result, engine, 0), g_atom("a"))

    def test_multiple_facts_disjunction(self):
        result, engine = run("p(a). p(b).", ("p", 1))
        assert g_equiv(out_grammar(result, engine, 0),
                       g_union(g_atom("a"), g_atom("b")))

    def test_integer_fact(self):
        result, engine = run("p(3).", ("p", 1))
        g = out_grammar(result, engine, 0)
        assert g_le(g, g_int())

    def test_structure_fact(self):
        result, engine = run("p(f(a, 1)).", ("p", 1))
        node = result.output.nodes[result.output.sv[0]]
        assert node.name == "f"

    def test_no_clauses_means_failure(self):
        result, engine = run("p(a). q(b).", ("p", 1))
        # r/1 undefined: analyzing it is a KeyError
        norm = normalize_program(parse_program("p(a)."))
        with pytest.raises(KeyError):
            Engine(norm).analyze(("missing", 1))


class TestBodies:
    def test_chained_calls(self):
        result, engine = run("p(X) :- q(X). q(a).", ("p", 1))
        assert g_equiv(out_grammar(result, engine, 0), g_atom("a"))

    def test_failure_propagates(self):
        result, engine = run("p(X) :- q(X), r(X). q(a). r(b).", ("p", 1))
        assert result.output is PAT_BOTTOM

    def test_builtin_is_types_result(self):
        result, engine = run("p(X) :- X is 1 + 2.", ("p", 1))
        assert g_le(out_grammar(result, engine, 0), g_int())

    def test_builtin_fail(self):
        result, engine = run("p(X) :- fail.", ("p", 1))
        assert result.output is PAT_BOTTOM

    def test_cut_is_noop(self):
        result, engine = run("p(a) :- !.", ("p", 1))
        assert g_equiv(out_grammar(result, engine, 0), g_atom("a"))

    def test_unknown_predicate_identity(self):
        result, engine = run("p(X) :- mystery(X).", ("p", 1))
        assert ("mystery", 1) in result.unknown_predicates
        assert result.output is not PAT_BOTTOM

    def test_disjunction_branches_joined(self):
        result, engine = run("p(X) :- (X = a ; X = b).", ("p", 1))
        assert g_equiv(out_grammar(result, engine, 0),
                       g_union(g_atom("a"), g_atom("b")))


class TestRecursion:
    def test_append_list_type(self, append_source):
        from repro.typegraph import g_any
        result, engine = run(append_source, ("append", 3))
        assert g_equiv(out_grammar(result, engine, 0), g_list_of(g_any()))

    def test_mutual_recursion(self):
        src = """
        even(0).
        even(s(X)) :- odd(X).
        odd(s(X)) :- even(X).
        """
        result, engine = run(src, ("even", 1))
        g = out_grammar(result, engine, 0)
        from repro.typegraph import parse_rules
        assert g_le(g, parse_rules("T ::= 0 | s(T)"))
        assert not g.is_bottom()

    def test_infinite_failure_is_bottom(self):
        # p has no base case: no success set
        result, engine = run("p(X) :- p(X).", ("p", 1))
        assert result.output is PAT_BOTTOM


class TestPolyvariance:
    SRC = """
    p(X, Y) :- q(X, Y).
    p(X, Y) :- q(Y, X).
    q(a, b).
    """

    def test_entries_per_input_pattern(self):
        result, engine = run(self.SRC, ("p", 2))
        assert len(result.entries_for(("q", 2))) >= 1

    def test_collapsed_view(self):
        result, engine = run(self.SRC, ("p", 2))
        collapsed = result.collapsed_for(("p", 2))
        assert collapsed is not None
        beta_in, beta_out = collapsed
        assert beta_out is not PAT_BOTTOM

    def test_input_cap_respected_via_general_entry(self):
        src = """
        walk([], Acc, Acc).
        walk([X|Xs], Acc, R) :- walk(Xs, f(X, Acc), R).
        go(L, R) :- walk(L, start, R).
        """
        result, engine = run(src, ("go", 2), max_input_patterns=3)
        # the accumulator forces input widening; analysis terminates and
        # the result is a recursive accumulator type, not Any
        g = out_grammar(result, engine, 1)
        assert not g.is_any()
        from repro.typegraph import parse_rules
        assert g_le(g, parse_rules("T ::= start | f(Any,T)"))

    def test_tuples_listing(self):
        result, engine = run(self.SRC, ("p", 2))
        tuples = result.tuples()
        assert tuples[0][1] == ("p", 2)
        assert all(len(t) == 3 for t in tuples)


class TestStatistics:
    def test_iterations_counted(self, nreverse_source):
        result, engine = run(nreverse_source, ("nreverse", 2))
        assert result.stats.procedure_iterations > 0
        assert result.stats.clause_iterations >= \
            result.stats.procedure_iterations

    def test_cpu_time_recorded(self, nreverse_source):
        result, engine = run(nreverse_source, ("nreverse", 2))
        assert result.stats.cpu_time >= 0.0

    def test_budget_exceeded_raises(self):
        from repro.fixpoint import AnalysisBudgetExceeded
        src = "p([], []). p([X|Xs], [f(X)|Ys]) :- p(Xs, Ys)."
        norm = normalize_program(parse_program(src))
        engine = Engine(norm, config=AnalysisConfig(
            max_procedure_iterations=1))
        with pytest.raises(AnalysisBudgetExceeded):
            engine.analyze(("p", 2))


class TestOrWidthRestriction:
    def test_capped_analysis_is_coarser_but_sound(self):
        src = "p(a). p(b). p(c). p(d)."
        r_full, e_full = run(src, ("p", 1))
        r_cap, e_cap = run(src, ("p", 1), max_or_width=2)
        g_full = out_grammar(r_full, e_full, 0)
        g_cap = out_grammar(r_cap, e_cap, 0)
        assert g_le(g_full, g_cap)
        assert g_cap.is_any()


class TestLookupMemo:
    """``Engine._solve``'s memos answer exactly what its table scan
    would, and an answer with an equal input outlives later appends."""

    @staticmethod
    def scan(engine, pred, beta_in):
        from repro.domains.pattern import subst_eq, subst_le
        covering = None
        for entry in engine.table[pred]:
            if subst_le(beta_in, entry.beta_in, engine.domain):
                if subst_eq(beta_in, entry.beta_in, engine.domain):
                    return entry
                covering = covering or entry
        return covering

    @pytest.mark.parametrize("name", ["KA", "PR", "CS", "RE"])
    def test_memo_answers_equal_a_fresh_scan(self, name):
        from repro.benchprogs import benchmark
        bp = benchmark(name)
        result, engine = run(bp.source, bp.query)
        survived = 0
        for memo in (engine._equal_memo, engine._lookup_memo):
            for pred, answers in memo.items():
                for beta_in, entry in answers.items():
                    assert self.scan(engine, pred, beta_in) is entry
                    if memo is engine._equal_memo:
                        survived += entry is not engine.table[pred][-1]
        assert survived  # some equal answers predate a later append
