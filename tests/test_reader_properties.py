"""Hostile input for the front end: random text over a Prolog-like
alphabet either reads as a program or fails with a positioned
``TokenizeError``/``ParseError`` -- never another exception, which the
CLI would report without a position and a server as an internal
error."""

from hypothesis import given, settings, strategies as st

from repro.prolog import parse_program
from repro.prolog.parser import ParseError
from repro.prolog.reader import TokenizeError

#: Fragments the scanner and the parser treat specially: quotes and
#: their escapes, character codes, comment openers and closers, solo
#: and symbol characters, operators, and letters and digits that are
#: not ASCII (the non-ASCII digits are neither names nor integers).
ALPHABET = (
    list("abfpXY_019 \n\t.,;|!()[]{}'\"\\%/*+-=<>:?@#&$^~`") + [
        "0'", "0'\\", "0''", "/*", "*/", "''", '""', "\\x", "\\x41\\",
        "\\n", "\\\n", ":-", "-->", "->", "\\+", "=..", "is", "op",
        "\u00b2", "\u0663", "\u00e9", "\u00c9", "\u00a0", "\u2028",
    ])

hostile_text = st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(hostile_text, st.booleans())
def test_random_text_reads_or_fails_with_a_position(text, end_clause):
    if end_clause:  # an end dot lets more cases reach the parser
        text += " .\n"
    try:
        parse_program(text)
    except (TokenizeError, ParseError) as error:
        assert " at line " in str(error)
