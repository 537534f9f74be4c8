"""Prolog tokenizer.

Produces a stream of :class:`Token` objects from Prolog source text.
Handles: unquoted and quoted atoms, variables, integers, strings
(``"..."`` read as character-code lists), punctuation, ``%`` line
comments and ``/* ... */`` block comments, and the end-of-clause dot.

This is the same job as the O'Keefe/Warren tokenizer analysed as the
``RE`` benchmark in the paper, implemented here in Python as part of the
analyser's front end.  Each token costs one dispatch on its first
character and at most one compiled-regex match: layout, names, digit
runs and symbol runs are matched whole, and a token's line and column
come from the newlines counted in the text it skipped.  Quoted tokens
and ``0'c`` character codes take a small hand-written path for their
escapes.
"""

from __future__ import annotations

import re
from typing import List, Tuple

__all__ = ["Token", "TokenizeError", "tokenize"]

SYMBOL_CHARS = "+-*/\\^<>=~:.?@#&$"
SOLO_CHARS = "!,;|"
PUNCT_CHARS = "()[]{}"
DIGITS = "0123456789"

#: Whitespace, ``%`` line comments and closed ``/* */`` comments.
#: ``\s`` is ``str.isspace``; only ``\n`` starts a new line.
_LAYOUT = re.compile(r"\s*(?:(?:%[^\n]*|/\*.*?\*/)\s*)*", re.DOTALL).match
#: The rest of a name once its first character is a letter or ``_``:
#: ``\w`` is ``str.isalnum`` or ``_``.
_NAME = re.compile(r"\w+").match
#: Integers are ASCII digits only: other Unicode digits ('²', '٣') are
#: not letters or symbols either, so they are an unexpected character.
_DIGIT_RUN = re.compile(r"[0-9]+").match
_SYMBOL_RUN = re.compile(r"[-+*/\\^<>=~:.?@#&$]+").match
_HEX_RUN = re.compile(r"[0-9a-fA-F]*").match
_QUOTED_RUN = {"'": re.compile(r"[^'\\]+").match,
               '"': re.compile(r'[^"\\]+').match}

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "a": "\a", "b": "\b",
    "f": "\f", "v": "\v", "\\": "\\", "'": "'", '"': '"',
    "`": "`", "0": "\0",
}
_CODE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\",
                 "'": "'", '"': '"', "0": "\0", "a": "\a",
                 "b": "\b", "f": "\f", "v": "\v"}


class TokenizeError(SyntaxError):
    """Raised on malformed input, with line/column information."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__("%s at line %d, column %d" % (message, line, column))
        self.line = line
        self.column = column


def _error(message: str, text: str, pos: int) -> TokenizeError:
    """A :class:`TokenizeError` at character offset ``pos``."""
    line_start = text.rfind("\n", 0, pos) + 1
    return TokenizeError(message, text.count("\n", 0, pos) + 1,
                         pos - line_start + 1)


class Token:
    """One lexical token.

    ``kind`` is one of ``atom``, ``var``, ``int``, ``string``, ``punct``,
    ``end`` (the clause-terminating dot), or ``eof``.  ``layout_before``
    records whether layout (whitespace/comment) immediately precedes the
    token — needed to distinguish ``f(`` (functor application) from
    ``f (`` (operator syntax).  Tokens are values: equal when their
    fields are, and never changed after construction.
    """

    __slots__ = ("kind", "text", "line", "column", "layout_before")

    def __init__(self, kind: str, text: str, line: int, column: int,
                 layout_before: bool = False) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.layout_before = layout_before

    def _fields(self) -> tuple:
        return (self.kind, self.text, self.line, self.column,
                self.layout_before)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return ("%s(kind=%r, text=%r, line=%r, column=%r, layout_before=%r)"
                % ((self.__class__.__qualname__,) + self._fields()))

    @property
    def value(self) -> int:
        if self.kind != "int":
            raise ValueError("not an integer token: %r" % (self,))
        if self.text.startswith("0'"):
            return ord(self.text[2:])
        return int(self.text)


def _scan_quoted(text: str, pos: int, quote: str) -> Tuple[str, int]:
    """The body of a quoted atom or string whose opening quote ends at
    ``pos``, and the offset after its closing quote."""
    run = _QUOTED_RUN[quote]
    end = len(text)
    chunks: List[str] = []
    while True:
        match = run(text, pos)
        if match is not None:
            chunks.append(match.group())
            pos = match.end()
        if pos >= end:
            raise _error("unterminated quoted token", text, pos)
        ch = text[pos]
        pos += 1
        if ch == quote:
            if text.startswith(quote, pos):  # doubled quote = literal quote
                chunks.append(quote)
                pos += 1
                continue
            return "".join(chunks), pos
        # ch is a backslash
        if pos >= end:
            raise _error("unterminated escape", text, pos)
        esc = text[pos]
        pos += 1
        if esc == "\n":
            continue  # escaped newline: line continuation
        if esc == "x":
            digits = _HEX_RUN(text, pos).group()
            pos += len(digits)
            if text.startswith("\\", pos):
                pos += 1
            code = int(digits, 16) if digits else -1
            if not 0 <= code <= 0x10FFFF:  # no digits, or past Unicode
                raise _error("bad \\x escape", text, pos)
            chunks.append(chr(code))
            continue
        mapped = _ESCAPES.get(esc)
        if mapped is None:
            raise _error("unknown escape \\%s" % esc, text, pos)
        chunks.append(mapped)


def _scan_char_code(text: str, pos: int) -> Tuple[str, int]:
    """The character of a ``0'c`` code whose ``0'`` ends at ``pos``, and
    the offset after it."""
    end = len(text)
    if pos >= end:
        raise _error("unterminated character code", text, pos)
    code_char = text[pos]
    pos += 1
    if code_char == "\\":
        if pos >= end:
            raise _error("unterminated character code", text, pos)
        code_char = _CODE_ESCAPES.get(text[pos])
        pos += 1
        if code_char is None:
            raise _error("unknown escape in character code", text, pos)
    elif code_char == "'" and text.startswith("'", pos):
        pos += 1  # 0''' is the quote character itself
    return code_char, pos


def tokenize(text: str) -> List[Token]:
    """Tokenize Prolog source text into a list ending with an eof token."""
    tokens: List[Token] = []
    append = tokens.append
    name_end = _NAME
    end = len(text)
    pos = 0
    line, line_start = 1, 0  # the current line and the offset it starts at
    layout = False
    while pos < end:
        ch = text[pos]
        if ch.isalpha() or ch == "_":
            stop = name_end(text, pos).end()
            append(Token("var" if ch == "_" or ch.isupper() else "atom",
                         text[pos:stop], line, pos - line_start + 1,
                         layout))
        elif ch in PUNCT_CHARS:
            stop = pos + 1
            append(Token("punct", ch, line, pos - line_start + 1, layout))
        elif ch in SOLO_CHARS:
            stop = pos + 1
            append(Token("atom", ch, line, pos - line_start + 1, layout))
        elif ch.isspace() or ch == "%" or (
                ch == "/" and text.startswith("*", pos + 1)):
            stop = _LAYOUT(text, pos).end()
            if stop == pos:  # only an unclosed '/*' matches nothing
                raise _error("unterminated block comment", text, end)
            newlines = text.count("\n", pos, stop)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, stop) + 1
            pos = stop
            layout = True
            continue
        elif ch in SYMBOL_CHARS:
            # A '.' followed by layout or the end of the text ends the
            # clause; otherwise symbol characters munch maximally.
            column = pos - line_start + 1
            if ch == "." and (pos + 1 == end or text[pos + 1].isspace()
                              or text[pos + 1] == "%"):
                stop = pos + 1
                append(Token("end", ".", line, column, layout))
            else:
                stop = _SYMBOL_RUN(text, pos).end()
                append(Token("atom", text[pos:stop], line, column, layout))
        else:
            column = pos - line_start + 1
            if ch in DIGITS:
                if ch == "0" and text.startswith("'", pos + 1):
                    code_char, stop = _scan_char_code(text, pos + 2)
                    append(Token("int", "0'" + code_char, line, column,
                                 layout))
                else:
                    stop = _DIGIT_RUN(text, pos).end()
                    append(Token("int", text[pos:stop], line, column,
                                 layout))
            elif ch == "'" or ch == '"':
                body, stop = _scan_quoted(text, pos + 1, ch)
                append(Token("atom" if ch == "'" else "string", body, line,
                             column, layout))
            else:
                raise _error("unexpected character %r" % ch, text, pos)
            # quoted tokens and 0'c codes may span lines
            newlines = text.count("\n", pos, stop)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, stop) + 1
        pos = stop
        layout = False
    tokens.append(Token("eof", "", line, pos - line_start + 1, layout))
    return tokens
