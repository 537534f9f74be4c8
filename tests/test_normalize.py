"""Unit tests for kernel normalization."""

import pytest

from repro.prolog.normalize import (NBuild, NCall, NUnify, normalize_clause,
                                    normalize_program)
from repro.prolog.program import clause_from_term, parse_program
from repro.prolog.parser import parse_term


def norm_one(text):
    clause = clause_from_term(parse_term(text))
    results = normalize_clause(clause)
    assert len(results) == 1
    return results[0]


class TestHeads:
    def test_fact_head_variables(self):
        nc = norm_one("p(X, Y)")
        assert nc.pred == ("p", 2)
        assert nc.nvars == 2
        assert nc.body == []

    def test_repeated_head_variable(self):
        nc = norm_one("p(X, X)")
        assert nc.body == [NUnify(1, 0)]

    def test_head_structure_flattening(self):
        nc = norm_one("p(f(X))")
        assert nc.body[0] == NBuild(0, "f", (1,))

    def test_head_atom_argument(self):
        nc = norm_one("p(a)")
        assert nc.body == [NBuild(0, "a", ())]

    def test_head_integer_argument(self):
        nc = norm_one("p(3)")
        assert nc.body == [NBuild(0, "3", (), True)]

    def test_list_head(self):
        nc = norm_one("p([F|T])")
        assert nc.body[0] == NBuild(0, ".", (1, 2))


class TestBodies:
    def test_call_with_variables(self):
        nc = norm_one("p(X) :- q(X)")
        assert nc.body == [NCall(("q", 1), (0,))]

    def test_call_with_structure_argument(self):
        nc = norm_one("p(X) :- q(f(X))")
        build = [g for g in nc.body if isinstance(g, NBuild)]
        call = [g for g in nc.body if isinstance(g, NCall)]
        assert len(build) == 1 and len(call) == 1
        assert build[0].name == "f"
        # the unification happens before the call
        assert nc.body.index(build[0]) < nc.body.index(call[0])

    def test_explicit_unification_var_term(self):
        nc = norm_one("p(X) :- X = f(a)")
        assert isinstance(nc.body[0], NBuild)

    def test_unification_nonvar_nonvar(self):
        nc = norm_one("p :- f(a) = f(b)")
        builds = [g for g in nc.body if isinstance(g, NBuild)]
        assert len(builds) >= 2

    def test_true_removed(self):
        nc = norm_one("p :- true")
        assert nc.body == []

    def test_variable_goal_becomes_call(self):
        nc = norm_one("p(X) :- X")
        assert nc.body == [NCall(("call", 1), (0,))]

    def test_negation_kept_as_test(self):
        nc = norm_one("p(X) :- \\+ q(X)")
        assert any(g.pred == ("\\+", 1) for g in nc.body
                   if isinstance(g, NCall))


class TestDisjunction:
    def test_disjunction_splits_clause(self):
        clause = clause_from_term(parse_term("p(X) :- (q(X) ; r(X))"))
        results = normalize_clause(clause)
        assert len(results) == 2
        assert results[0].body == [NCall(("q", 1), (0,))]
        assert results[1].body == [NCall(("r", 1), (0,))]

    def test_if_then_else(self):
        clause = clause_from_term(
            parse_term("p(X) :- (q(X) -> r(X) ; s(X))"))
        results = normalize_clause(clause)
        assert len(results) == 2
        # branch 1 runs the condition then the then-goal
        assert [g.pred for g in results[0].body] == [("q", 1), ("r", 1)]
        assert [g.pred for g in results[1].body] == [("s", 1)]

    def test_nested_disjunction(self):
        clause = clause_from_term(
            parse_term("p :- (a ; b), (c ; d)"))
        results = normalize_clause(clause)
        assert len(results) == 4


class TestProgramLevel:
    def test_head_args_are_first_vars(self, nreverse_source):
        norm = normalize_program(parse_program(nreverse_source))
        for pred in norm.order:
            for clause in norm.procedures[pred].clauses:
                assert clause.nvars >= clause.pred[1]

    def test_program_points_positive(self, nreverse_source):
        norm = normalize_program(parse_program(nreverse_source))
        assert norm.num_program_points() > len(norm.order)

    def test_all_goal_args_are_distinct_vars_per_call(self):
        norm = normalize_program(parse_program(
            "p(X) :- q(f(X), g(X, X))."))
        clause = norm.procedures[("p", 1)].clauses[0]
        calls = [g for g in clause.body if isinstance(g, NCall)]
        assert len(calls) == 1
        assert all(isinstance(a, int) for a in calls[0].args)


class TestOversizedDisjunction:
    """PR 5: cartesian expansion past the cap degrades to auxiliary
    predicates instead of aborting the analysis."""

    @staticmethod
    def _wide_source(n):
        disj = " , ".join("(X%d = a ; X%d = b)" % (i, i)
                          for i in range(n))
        head_args = ", ".join("X%d" % i for i in range(n))
        return "p(%s) :- %s.\n" % (head_args, disj)

    def test_under_cap_unchanged(self):
        # 2^6 = 64 bodies is exactly the cap: still plain expansion.
        norm = normalize_program(parse_program(self._wide_source(6)))
        assert norm.disjunction_fallbacks == 0
        assert len(norm.procedures[("p", 6)].clauses) == 64
        assert list(norm.procedures) == [("p", 6)]

    def test_over_cap_extracts_aux_predicates(self):
        norm = normalize_program(parse_program(self._wide_source(8)))
        assert norm.disjunction_fallbacks > 0
        aux = [pred for pred in norm.procedures
               if pred[0].startswith("$or_")]
        assert aux
        for pred in aux:
            # one clause per disjunct
            assert len(norm.procedures[pred].clauses) == 2

    def test_over_cap_analysis_is_sound_and_precise(self):
        from repro import analyze
        source = self._wide_source(8)
        analysis = analyze(source, ("p", 8))
        assert analysis.stats.disjunction_fallbacks > 0
        assert analysis.result.unknown_predicates == []
        # every argument still gets the exact a|b type
        text = analysis.grammar_text()
        assert text.count("a | b") == 8

    def test_aux_names_unique_across_clauses(self):
        source = (self._wide_source(8)
                  + self._wide_source(8).replace("p(", "p2(", 1))
        norm = normalize_program(parse_program(source))
        aux = [pred for pred in norm.procedures
               if pred[0].startswith("$or_")]
        assert len(aux) == len(set(aux)) == 4

    def test_normalize_clause_appends_aux_clauses(self):
        clause = clause_from_term(parse_term(
            self._wide_source(8).strip().rstrip(".")))
        results = normalize_clause(clause)
        own = [c for c in results if c.pred == ("p", 8)]
        aux = [c for c in results if c.pred != ("p", 8)]
        assert own and aux
        assert all(c.pred[0].startswith("$or_") for c in aux)


def test_a_long_list_normalizes_in_order():
    """A 3500-element list normalizes without recursion: one build per
    cell and element, depth first, fresh variables in that order."""
    count = 3500
    nc = norm_one("p([%s])" % ",".join(map(str, range(count))))
    assert len(nc.body) == 2 * count + 1
    assert nc.nvars == 2 * count + 1
    assert nc.body[:4] == [NBuild(0, ".", (1, 2)), NBuild(1, "0", (), True),
                           NBuild(2, ".", (3, 4)), NBuild(3, "1", (), True)]
    assert nc.body[-1] == NBuild(2 * count, "[]", ())


def test_nested_arguments_keep_depth_first_order():
    nc = norm_one("p(f(g(a), h(b, X), c))")
    assert nc.body == [NBuild(0, "f", (1, 2, 3)), NBuild(1, "g", (4,)),
                       NBuild(4, "a", ()), NBuild(2, "h", (5, 6)),
                       NBuild(5, "b", ()), NBuild(3, "c", ())]
