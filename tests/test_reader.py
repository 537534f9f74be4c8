"""Unit tests for the tokenizer."""

import hashlib

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

    @pytest.mark.parametrize("text,column", [
        ("p(0'\\", 6),       # a backslash with nothing after it
        ("0'\\", 4),
    ])
    def test_char_code_escape_at_end_of_input(self, text, column):
        with pytest.raises(TokenizeError) as info:
            tokenize(text)
        assert str(info.value) == \
            "unterminated character code at line 1, column %d" % column

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


def stream(text):
    return [(t.kind, t.text, t.line, t.column, t.layout_before)
            for t in tokenize(text)]


def token_digest(text):
    """sha256 over every token's (kind, text, line, column,
    layout_before), eof included."""
    digest = hashlib.sha256()
    for fields in stream(text):
        digest.update(repr(fields).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


#: Token-stream digests of the built-in benchmark sources, taken from
#: the character-by-character scanner the regex scanner replaced.  The
#: L-variants share their base program's source.
TOKEN_DIGESTS = {
    "AR": "2bfb7edd283ff1987031ca6f3dc046524572711e226dfabe50513ea3746e9c76",
    "AR1": "7eb005aea003581596d6142b6613c9252b0b9591c62978236f9838e2a9c3be94",
    "BR": "1b2cb279cc5a3af339e79f08118e39cbb082847436908476ec1bf70b56b560c1",
    "CHK": "bdfbba8a8f5930bbb91732078535cf255237340bc0306376e442d6fc640d0abb",
    "CS": "353e1b0d09718c74fde7a4bbed0d35c990c8402b3b0054dbed0ce85b92687461",
    "DS": "2667f6e2a9e7422b8ee37190c6604780bd64b56a177d1f02c8d1a35f74f7ffa7",
    "KA": "a7e1db09126769a192ca8c4d5c874fa255568559a33343e422f6768dd43959a1",
    "LDS": "2667f6e2a9e7422b8ee37190c6604780bd64b56a177d1f02c8d1a35f74f7ffa7",
    "LPE": "4e14c058e2b6ae15a66808897078bab80f966f8f93e264a83c0b36d3e0537a3a",
    "LPL": "923cb479704e77cc1fb34f9aff769cd84ad6636297d2db6eb18ba8f65c684f1e",
    "PE": "4e14c058e2b6ae15a66808897078bab80f966f8f93e264a83c0b36d3e0537a3a",
    "PG": "d8c71b726514322ee19ee7b2eeac55060e8b4f817c8a1fd47fe80eb6b065beb2",
    "PL": "923cb479704e77cc1fb34f9aff769cd84ad6636297d2db6eb18ba8f65c684f1e",
    "PR": "0641baacf09ac236674afec28f1fcb7f5c5005ae0484d2c20371833d18d28c79",
    "QU": "4c31c5cf95f87b2599acfa92cd6beaab816c4a6a6645ab55247d6e98cc4941be",
    "RE": "e30bbad370754c32e9d7284d93ad1162681ac3908b7e11346e2c84dfddf67e81",
}


class TestTokenOracle:
    """Pinned token streams: every token's kind, text, position and
    layout flag as the original scanner produced them."""

    def test_every_benchmark_is_pinned(self):
        from repro.benchprogs import BENCHMARKS
        assert sorted(TOKEN_DIGESTS) == sorted(BENCHMARKS)

    @pytest.mark.parametrize("name", sorted(TOKEN_DIGESTS))
    def test_benchmark_token_stream(self, name):
        from repro.benchprogs import benchmark
        assert token_digest(benchmark(name).source) == TOKEN_DIGESTS[name]

    @pytest.mark.parametrize("text,expected", [
        ("a /* one\n two\n*/ b",
         [("atom", "a", 1, 1, False), ("atom", "b", 3, 4, True),
          ("eof", "", 3, 5, False)]),
        ("a /* x */b\n  /**/ c",
         [("atom", "a", 1, 1, False), ("atom", "b", 1, 10, True),
          ("atom", "c", 2, 8, True), ("eof", "", 2, 9, False)]),
    ], ids=["multiline", "adjacent"])
    def test_block_comments(self, text, expected):
        assert stream(text) == expected

    def test_character_codes(self):
        assert stream("0'c 0''' 0'\\n X = 0'''.") == [
            ("int", "0'c", 1, 1, False), ("int", "0''", 1, 5, True),
            ("int", "0'\n", 1, 10, True), ("var", "X", 1, 15, True),
            ("atom", "=", 1, 17, True), ("int", "0''", 1, 19, True),
            ("end", ".", 1, 23, False), ("eof", "", 1, 24, False)]
        assert [t.value for t in tokenize("0'c 0''' 0'\\n")[:3]] == \
            [ord("c"), ord("'"), ord("\n")]

    def test_raw_newline_character_code_moves_the_line(self):
        assert stream("0'\nx") == [("int", "0'\n", 1, 1, False),
                                   ("atom", "x", 2, 1, False),
                                   ("eof", "", 2, 2, False)]

    def test_doubled_quotes(self):
        assert stream("'it''s' \"say \"\"hi\"\"\"") == [
            ("atom", "it's", 1, 1, False),
            ("string", 'say "hi"', 1, 9, True), ("eof", "", 1, 21, False)]

    def test_hex_escapes_and_escaped_newlines(self):
        assert stream("'\\x41\\B' 'ab\\\ncd' e") == [
            ("atom", "AB", 1, 1, False), ("atom", "abcd", 1, 10, True),
            ("atom", "e", 2, 5, True), ("eof", "", 2, 6, False)]

    def test_end_dot_before_a_comment(self):
        assert stream("p. % done\nq.%x") == [
            ("atom", "p", 1, 1, False), ("end", ".", 1, 2, False),
            ("atom", "q", 2, 1, True), ("end", ".", 2, 2, False),
            ("eof", "", 2, 5, True)]

    def test_functor_paren_against_spaced_paren(self):
        assert stream("f( f (") == [
            ("atom", "f", 1, 1, False), ("punct", "(", 1, 2, False),
            ("atom", "f", 1, 4, True), ("punct", "(", 1, 6, True),
            ("eof", "", 1, 7, False)]

    def test_symbol_run_swallows_a_comment_opener(self):
        # '/*' opens a comment only where a token would start
        assert stream("a +/* b") == [
            ("atom", "a", 1, 1, False), ("atom", "+/*", 1, 3, True),
            ("atom", "b", 1, 7, True), ("eof", "", 1, 8, False)]

    @pytest.mark.parametrize("text,message,line,column", [
        ("a /* x\ny", "unterminated block comment", 2, 2),
        ("p('ab\ncd", "unterminated quoted token", 2, 3),
        ("'ab\\", "unterminated escape", 1, 5),
        ("'a\\qb'", "unknown escape \\q", 1, 5),
        ("'a\\xg'", "bad \\x escape", 1, 5),
        ("'\\x110000\\'", "bad \\x escape", 1, 11),   # past U+10FFFF
        ("'a\\x4\\", "unterminated quoted token", 1, 7),
        ("x = 0'", "unterminated character code", 1, 7),
        ("0'\\q", "unknown escape in character code", 1, 5),
        ("0'\\\nx", "unknown escape in character code", 2, 1),
        ("p(a) \x01", "unexpected character '\\x01'", 1, 6),
    ])
    def test_error_messages_and_positions(self, text, message, line,
                                          column):
        with pytest.raises(TokenizeError) as info:
            tokenize(text)
        assert str(info.value) == "%s at line %d, column %d" % (
            message, line, column)
