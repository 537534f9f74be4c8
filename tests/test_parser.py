"""Unit tests for the operator-precedence parser."""

import pytest

from repro.prolog.parser import (MAX_DEPTH, ParseError, parse_clauses,
                                 parse_term)
from repro.prolog.terms import (Atom, Int, Struct, Var, format_term,
                                make_list)


def f(text):
    return format_term(parse_term(text))


class TestPrimary:
    def test_atom(self):
        assert parse_term("foo") == Atom("foo")

    def test_integer(self):
        assert parse_term("42") == Int(42)

    def test_negative_integer(self):
        assert parse_term("-7") == Int(-7)

    def test_variable(self):
        assert parse_term("X") == Var("X")

    def test_anonymous_variables_distinct(self):
        term = parse_term("f(_, _)")
        assert term.args[0] != term.args[1]

    def test_named_variables_shared(self):
        term = parse_term("f(X, X)")
        assert term.args[0] is term.args[1] or term.args[0] == term.args[1]

    def test_structure(self):
        assert parse_term("f(a, b)") == Struct("f", (Atom("a"), Atom("b")))

    def test_nested_structure(self):
        assert f("f(g(h(a)))") == "f(g(h(a)))"

    def test_string_as_code_list(self):
        assert parse_term('"ab"') == make_list([Int(97), Int(98)])

    def test_curly_braces(self):
        assert parse_term("{}") == Atom("{}")
        assert parse_term("{a}") == Struct("{}", (Atom("a"),))


class TestLists:
    def test_empty_list(self):
        assert parse_term("[]") == Atom("[]")

    def test_proper_list(self):
        assert f("[a,b,c]") == "[a,b,c]"

    def test_list_with_tail(self):
        assert f("[a|T]") == "[a|T]"

    def test_nested_lists(self):
        assert f("[[a],[b,[c]]]") == "[[a],[b,[c]]]"

    def test_list_elements_are_arg_priority(self):
        # ',' inside a list separates elements, it is not the operator
        term = parse_term("[a,b]")
        assert format_term(term) == "[a,b]"


class TestOperators:
    def test_infix_priority(self):
        assert f("1 + 2 * 3") == "+(1,*(2,3))"

    def test_left_associative(self):
        assert f("1 - 2 - 3") == "-(-(1,2),3)"

    def test_right_associative(self):
        assert f("(a , b , c)") == ",(a,,(b,c))"

    def test_xfx_comparison(self):
        assert f("X is Y + 1") == "is(X,+(Y,1))"

    def test_clause_operator(self):
        assert f("a :- b") == ":-(a,b)"

    def test_prefix_minus_on_term(self):
        assert f("-(a)") == "-(a)"
        assert f("- a") == "-(a)"

    def test_prefix_negation(self):
        assert f("\\+ a") == "\\+(a)"

    def test_parentheses_override(self):
        assert f("(1 + 2) * 3") == "*(+(1,2),3)"

    def test_operator_as_atom_in_args(self):
        assert f("f(+, -)") == "f(+,-)"

    def test_if_then_else(self):
        assert f("(a -> b ; c)") == ";(->(a,b),c)"

    def test_functor_requires_no_layout(self):
        # "f (a)" is not an application; it fails as two terms
        with pytest.raises(ParseError):
            parse_term("f (a) x")

    def test_priority_violation(self):
        with pytest.raises(ParseError):
            parse_term("f(a :- b)")  # 1200 > 999 inside arguments


class TestClauses:
    def test_multiple_clauses(self):
        clauses = parse_clauses("a. b. c(X) :- d(X).")
        assert len(clauses) == 3

    def test_variables_reset_per_clause(self):
        clauses = parse_clauses("p(X). q(X).")
        # same printed name, but each clause gets its own variable map
        assert clauses[0].args[0] == clauses[1].args[0]

    def test_op_directive(self):
        clauses = parse_clauses("""
            :- op(700, xfx, ===).
            rule(X === Y).
        """)
        rule = clauses[1]
        assert rule.args[0] == Struct("===", (Var("X"), Var("Y")))

    def test_missing_end_dot(self):
        with pytest.raises(ParseError):
            parse_clauses("a :- b")

    def test_comment_only_source(self):
        assert parse_clauses("% nothing here\n") == []


class TestNestingDepth:
    """The top-level term is level 1; each argument, list element,
    parenthesised term and right-hand operand opens one more."""

    @pytest.mark.parametrize("open_, close", [("f(", ")"), ("[", "]"),
                                              ("(", ")"), ("- ", "")],
                             ids=["args", "list", "parens", "prefix"])
    def test_limit_is_accepted_and_beyond_is_an_error(self, open_, close):
        def nested(levels):
            return open_ * levels + "a" + close * levels

        parse_term(nested(MAX_DEPTH - 1))  # "a" sits at level MAX_DEPTH
        with pytest.raises(ParseError, match="nested deeper than %d"
                           % MAX_DEPTH) as info:
            parse_term(nested(MAX_DEPTH))
        assert "at line 1, column %d" % (len(open_) * MAX_DEPTH + 1) \
            in str(info.value)

    def test_long_conjunction_is_nesting_too(self):
        body = ", ".join(["q"] * (MAX_DEPTH - 1))
        assert len(parse_clauses("p :- %s." % body)) == 1
        with pytest.raises(ParseError):
            parse_clauses("p :- %s, q." % body)

    def test_left_associative_chain_is_flat(self):
        parse_term("+".join(["1"] * (2 * MAX_DEPTH)))


class TestRealisticClauses:
    def test_append_clause(self):
        text = "append([F|T], S, [F|R]) :- append(T, S, R)."
        clause = parse_clauses(text)[0]
        assert clause.name == ":-"

    def test_arithmetic_guard(self):
        clause = parse_clauses("p(X) :- X > 0, X =< 10.")[0]
        body = clause.args[1]
        assert body.name == ","

    def test_deep_program(self, nreverse_source):
        assert len(parse_clauses(nreverse_source)) == 4
