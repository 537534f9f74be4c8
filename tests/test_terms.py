"""Unit tests for the term representation."""

import dataclasses
import pickle

import pytest

from repro.prolog.normalize import NBuild, NCall, NUnify
from repro.prolog.reader import Token
from repro.prolog.terms import (Atom, Int, NIL, Struct, Var, format_term,
                                functor_of, is_list_term, list_elements,
                                make_list, term_depth, term_size,
                                term_variables)


class TestConstruction:
    def test_atom_equality(self):
        assert Atom("foo") == Atom("foo")
        assert Atom("foo") != Atom("bar")

    def test_var_identity_by_name_and_stamp(self):
        assert Var("X") == Var("X")
        assert Var("X") != Var("X", 3)
        assert Var("X", 3) == Var("X", 3)

    def test_int_value(self):
        assert Int(42).value == 42
        assert Int(-1) != Int(1)

    def test_struct_requires_args(self):
        with pytest.raises(ValueError):
            Struct("f", ())

    def test_struct_arity(self):
        assert Struct("f", (Atom("a"), Atom("b"))).arity == 2

    def test_terms_hashable(self):
        seen = {Atom("a"), Int(1), Var("X"),
                Struct("f", (Atom("a"),))}
        assert len(seen) == 4



#: One instance of each slotted value class of the front end, with the
#: tuple of its fields in declaration order.
VALUES = [
    (Var("X", 3), ("X", 3)), (Atom("x"), ("x",)), (Int(7), (7,)),
    (Struct("f", (Atom("a"), Var("X"))), ("f", (Atom("a"), Var("X")))),
    (Token("atom", "x", 2, 5, True), ("atom", "x", 2, 5, True)),
    (NUnify(0, 1), (0, 1)), (NBuild(2, "f", (0, 1)), (2, "f", (0, 1), False)),
    (NCall(("p", 1), (0,)), (("p", 1), (0,))),
]


class TestValueSemantics:
    """The term, token and kernel-goal classes are slotted values with
    the equality and hash their frozen-dataclass versions had."""

    @pytest.mark.parametrize("value,fields", VALUES,
                             ids=[type(v).__name__ for v, _ in VALUES])
    def test_equality_and_hash_follow_the_fields(self, value, fields):
        cls = type(value)
        assert not dataclasses.is_dataclass(cls)
        assert not hasattr(value, "__dict__")
        twin = cls(*fields)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value) == hash(fields)
        assert pickle.loads(pickle.dumps(value)) == value

    def test_equality_is_type_strict(self):
        assert Atom("x") != Var("x")
        assert Var("x") != Atom("x")
        assert Int(1) != Atom("1")
        assert NUnify(0, 1) != NCall(("p", 0), (0, 1))
        assert Atom("x") != "x"
        assert len({Atom("x"), Var("x"), Atom("x")}) == 2


class TestLists:
    def test_make_empty_list(self):
        assert make_list([]) == NIL

    def test_make_list_structure(self):
        lst = make_list([Atom("a"), Atom("b")])
        assert lst == Struct(".", (Atom("a"),
                                   Struct(".", (Atom("b"), NIL))))

    def test_list_elements_roundtrip(self):
        items = [Atom("a"), Int(1), Var("X")]
        elements, tail = list_elements(make_list(items))
        assert elements == items
        assert tail == NIL

    def test_partial_list_tail(self):
        tail_var = Var("T")
        elements, tail = list_elements(make_list([Atom("a")], tail_var))
        assert elements == [Atom("a")]
        assert tail == tail_var

    def test_is_list_term(self):
        assert is_list_term(make_list([Atom("a")]))
        assert is_list_term(NIL)
        assert not is_list_term(make_list([Atom("a")], Var("T")))
        assert not is_list_term(Atom("a"))


class TestFunctorOf:
    def test_atom_functor(self):
        assert functor_of(Atom("foo")) == ("foo", 0)

    def test_int_functor(self):
        assert functor_of(Int(3)) == ("3", 0)

    def test_struct_functor(self):
        assert functor_of(Struct("f", (Atom("a"),))) == ("f", 1)

    def test_var_has_no_functor(self):
        with pytest.raises(TypeError):
            functor_of(Var("X"))


class TestTraversals:
    def test_term_variables_order_and_dedup(self):
        x, y = Var("X"), Var("Y")
        term = Struct("f", (x, Struct("g", (y, x))))
        assert term_variables(term) == [x, y]

    def test_term_size(self):
        term = Struct("f", (Atom("a"), Struct("g", (Int(1),))))
        assert term_size(term) == 4

    def test_term_depth(self):
        assert term_depth(Atom("a")) == 1
        assert term_depth(Struct("f", (Struct("g", (Atom("a"),)),))) == 3


class TestFormatting:
    def test_plain_atom(self):
        assert format_term(Atom("foo")) == "foo"

    def test_quoted_atom(self):
        assert format_term(Atom("Foo")) == "'Foo'"
        assert format_term(Atom("hello world")) == "'hello world'"

    def test_symbol_atom_unquoted(self):
        assert format_term(Atom("=..")) == "=.."

    def test_list_display(self):
        assert format_term(make_list([Atom("a"), Atom("b")])) == "[a,b]"

    def test_improper_list_display(self):
        assert format_term(make_list([Atom("a")], Var("T"))) == "[a|T]"

    def test_struct_display(self):
        term = Struct("f", (Atom("a"), Int(2)))
        assert format_term(term) == "f(a,2)"

    def test_quote_escaping(self):
        assert format_term(Atom("it's")) == r"'it\'s'"
