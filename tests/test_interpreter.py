"""Unit tests for the SLD interpreter (the concrete-semantics oracle)."""

import pytest

from repro.prolog.interpreter import SolveLimits, Solver, resolve, solve
from repro.prolog.parser import parse_term
from repro.prolog.program import parse_program
from repro.prolog.terms import Atom, Int, Var, format_term, make_list


def answers(source, goal_text, var="X", limits=None):
    program = parse_program(source)
    goal = parse_term(goal_text)
    out = []
    for bindings in Solver(program, limits).solve(goal):
        out.append(format_term(resolve(Var(var), bindings)))
    return out


class TestBasicResolution:
    def test_fact(self):
        assert answers("p(a). p(b).", "p(X)") == ["a", "b"]

    def test_conjunction(self):
        src = "p(a). p(b). q(b). r(X) :- p(X), q(X)."
        assert answers(src, "r(X)") == ["b"]

    def test_recursion(self):
        src = """
        nat(0).
        nat(s(X)) :- nat(X).
        """
        result = answers(src, "nat(X)",
                         limits=SolveLimits(max_solutions=4))
        assert result == ["0", "s(0)", "s(s(0))", "s(s(s(0)))"]

    def test_append(self, append_source):
        assert answers(append_source, "append([a,b],[c],X)") == ["[a,b,c]"]

    def test_append_backwards(self, append_source):
        program = parse_program(append_source)
        goal = parse_term("append(X, Y, [a,b])")
        results = list(Solver(program).solve(goal))
        assert len(results) == 3

    def test_nreverse(self, nreverse_source):
        assert answers(nreverse_source, "nreverse([a,b,c],X)") == \
            ["[c,b,a]"]

    def test_failure(self):
        assert answers("p(a).", "p(b)", "Y") == []

    def test_unknown_predicate_fails(self):
        assert answers("p(a).", "q(X)") == []


class TestUnification:
    def test_occur_check(self):
        assert answers("p(X) :- X = f(X).", "p(X)") == []

    def test_shared_variables(self):
        src = "eq(X, X)."
        assert answers(src, "eq(f(Y), f(a)), X = Y") == ["a"]

    def test_nonunifiable_functors(self):
        assert answers("p.", "f(a) = g(a)", "X") == []


class TestBuiltins:
    def test_is_evaluates(self):
        assert answers("p.", "X is 2 + 3 * 4") == ["14"]

    def test_is_with_subtraction_and_div(self):
        assert answers("p.", "X is (10 - 4) // 2") == ["3"]

    def test_comparison_success(self):
        assert answers("p.", "1 < 2, X = yes") == ["yes"]

    def test_comparison_failure(self):
        assert answers("p.", "2 < 1, X = yes") == []

    def test_comparison_unbound_fails(self):
        assert answers("p.", "Y < 1, X = yes") == []

    @pytest.mark.parametrize("goal", ["X is 1 mod 0", "X is 1 // 0",
                                      "1 / 0 < 2, X = yes"])
    def test_zero_divisor_fails(self, goal):
        assert answers("p.", goal) == []

    def test_equality_tests(self):
        assert answers("p.", "a == a, X = yes") == ["yes"]
        assert answers("p.", "a == b, X = yes") == []
        assert answers("p.", "a \\== b, X = yes") == ["yes"]

    def test_negation_as_failure(self):
        src = "p(a)."
        assert answers(src, "\\+ p(b), X = yes") == ["yes"]
        assert answers(src, "\\+ p(a), X = yes") == []

    def test_var_nonvar(self):
        assert answers("p.", "var(Y), X = yes") == ["yes"]
        assert answers("p.", "nonvar(f(a)), X = yes") == ["yes"]

    def test_type_tests(self):
        assert answers("p.", "atom(a), integer(3), X = yes") == ["yes"]
        assert answers("p.", "atom(3), X = yes") == []

    def test_length(self):
        assert answers("p.", "length([a,b,c], X)") == ["3"]

    def test_call(self):
        assert answers("q(a).", "call(q(X))") == ["a"]


class TestLimits:
    def test_depth_limit_terminates(self):
        src = "loop :- loop."
        assert answers(src, "loop", limits=SolveLimits(max_depth=50)) == []

    def test_solution_limit(self):
        src = "p(a). p(b). p(c)."
        result = answers(src, "p(X)", limits=SolveLimits(max_solutions=2))
        assert len(result) == 2

    def test_step_budget(self):
        src = "count(0). count(s(X)) :- count(X)."
        limits = SolveLimits(max_steps=50, max_solutions=1000)
        program = parse_program(src)
        results = list(Solver(program, limits).solve(
            parse_term("count(X)")))
        assert len(results) < 1000


class TestBenchmarkPrograms:
    def test_queens_solves(self):
        from repro.benchprogs import benchmark
        program = parse_program(benchmark("QU").source)
        goal = parse_term("queens([1,2,3,4], X)")
        results = list(Solver(program).solve(goal))
        assert len(results) > 0

    def test_pe_rewrites(self):
        from repro.benchprogs import benchmark
        program = parse_program(benchmark("PE").source)
        goal = parse_term(
            "peephole_opt([movreg(r(1),r(1)), proceed], X)")
        solver = Solver(program, SolveLimits(max_solutions=1))
        results = list(solver.solve(goal))
        assert results
        out = resolve(Var("X"), results[0])
        assert format_term(out) == "[proceed]"

    def test_open_br_query_raises_nothing(self):
        """BR's query with every argument unbound reaches ``mod`` by
        zero; the interpreter must fail that branch, not raise."""
        from repro.benchprogs import benchmark
        from repro.prolog.terms import Struct
        bench = benchmark("BR")
        name, arity = bench.query
        goal = Struct(name, tuple(Var("A%d" % i) for i in range(arity)))
        solver = Solver(parse_program(bench.source),
                        SolveLimits(max_solutions=5, max_steps=20000))
        assert len(list(solver.solve(goal))) <= 5
