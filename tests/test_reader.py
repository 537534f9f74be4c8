"""Unit tests for the tokenizer."""

import pytest

from repro.prolog.reader import Token, TokenizeError, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [(t.kind, t.text) for t in tokenize(text) if t.kind != "eof"]


class TestBasicTokens:
    def test_empty_input(self):
        assert kinds("") == ["eof"]

    def test_atom(self):
        assert texts("foo") == [("atom", "foo")]

    def test_variable(self):
        assert texts("Foo _bar") == [("var", "Foo"), ("var", "_bar")]

    def test_integer(self):
        assert texts("42") == [("int", "42")]
        assert tokenize("42")[0].value == 42

    @pytest.mark.parametrize("text,column", [
        ("p(\u00b2).", 3),      # superscript two: isdigit() but not 0-9
        ("p(\u0663).", 3),      # Arabic-Indic three: was read as 3
        ("p(1\u00b2).", 4),     # a number ends at its last ASCII digit
    ])
    def test_integers_are_ascii_digits_only(self, text, column):
        with pytest.raises(TokenizeError) as info:
            tokenize(text)
        assert (info.value.line, info.value.column) == (1, column)
        assert "unexpected character" in str(info.value)

    def test_non_ascii_digits_continue_a_name(self):
        assert texts("a\u00b2 X\u0663") == [("atom", "a\u00b2"),
                                            ("var", "X\u0663")]

    def test_char_code(self):
        token = tokenize("0'a")[0]
        assert token.kind == "int"
        assert token.value == ord("a")

    def test_char_code_escape(self):
        assert tokenize(r"0'\n")[0].value == ord("\n")

    def test_char_code_space(self):
        assert tokenize("0' ")[0].value == ord(" ")

    def test_punctuation(self):
        assert texts("()[]{}") == [("punct", c) for c in "()[]{}"]

    def test_solo_chars(self):
        assert texts("!,;|") == [("atom", c) for c in "!,;|"]

    def test_symbol_atom_maximal_munch(self):
        assert texts("=..") == [("atom", "=..")]
        assert texts(":- ?-") == [("atom", ":-"), ("atom", "?-")]

    def test_end_dot(self):
        assert kinds("foo.") == ["atom", "end", "eof"]

    def test_dot_in_symbol(self):
        # a dot followed by a non-layout char is part of a symbol atom
        assert texts(".(") == [("atom", "."), ("punct", "(")]


class TestQuoted:
    def test_quoted_atom(self):
        assert texts("'hello world'") == [("atom", "hello world")]

    def test_doubled_quote(self):
        assert texts("'it''s'") == [("atom", "it's")]

    def test_escape_sequences(self):
        assert texts(r"'a\nb'") == [("atom", "a\nb")]

    def test_string(self):
        assert texts('"abc"') == [("string", "abc")]

    def test_unterminated_quote(self):
        with pytest.raises(TokenizeError):
            tokenize("'oops")


class TestLayout:
    def test_line_comment(self):
        assert texts("a % comment\nb") == [("atom", "a"), ("atom", "b")]

    def test_block_comment(self):
        assert texts("a /* x */ b") == [("atom", "a"), ("atom", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(TokenizeError):
            tokenize("/* oops")

    def test_layout_before_flag(self):
        tokens = tokenize("f (")
        assert tokens[1].layout_before is True
        tokens = tokenize("f(")
        assert tokens[1].layout_before is False

    def test_line_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)


class TestClauseStream:
    def test_simple_clause(self):
        assert kinds("p(X) :- q(X).") == \
            ["atom", "punct", "var", "punct", "atom", "atom", "punct",
             "var", "punct", "end", "eof"]

    def test_error_reports_position(self):
        with pytest.raises(TokenizeError) as info:
            tokenize("abc \x01")
        assert "line 1" in str(info.value)
