"""Prolog tokenizer.

Produces a stream of :class:`Token` objects from Prolog source text.
Handles: unquoted and quoted atoms, variables, integers, strings
(``"..."`` read as character-code lists), punctuation, ``%`` line
comments and ``/* ... */`` block comments, and the end-of-clause dot.

This is the same job as the O'Keefe/Warren tokenizer analysed as the
``RE`` benchmark in the paper, implemented here in Python as part of the
analyser's front end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

__all__ = ["Token", "TokenizeError", "tokenize"]

SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&$")
SOLO_CHARS = set("!,;|")
PUNCT_CHARS = set("()[]{}")
DIGITS = set("0123456789")


class TokenizeError(SyntaxError):
    """Raised on malformed input, with line/column information."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__("%s at line %d, column %d" % (message, line, column))
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is one of ``atom``, ``var``, ``int``, ``string``, ``punct``,
    ``end`` (the clause-terminating dot), or ``eof``.  ``layout_before``
    records whether layout (whitespace/comment) immediately precedes the
    token — needed to distinguish ``f(`` (functor application) from
    ``f (`` (operator syntax).
    """

    kind: str
    text: str
    line: int
    column: int
    layout_before: bool = False

    @property
    def value(self) -> int:
        if self.kind != "int":
            raise ValueError("not an integer token: %r" % (self,))
        if self.text.startswith("0'"):
            return ord(self.text[2:])
        return int(self.text)


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < len(self.text):
            return self.text[index]
        return ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def error(self, message: str) -> TokenizeError:
        return TokenizeError(message, self.line, self.column)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)


def _skip_layout(s: _Scanner) -> bool:
    """Skip whitespace and comments; return True if anything was skipped."""
    skipped = False
    while not s.at_end():
        ch = s.peek()
        if ch.isspace():
            s.advance()
            skipped = True
        elif ch == "%":
            while not s.at_end() and s.peek() != "\n":
                s.advance()
            skipped = True
        elif ch == "/" and s.peek(1) == "*":
            s.advance()
            s.advance()
            while True:
                if s.at_end():
                    raise s.error("unterminated block comment")
                if s.peek() == "*" and s.peek(1) == "/":
                    s.advance()
                    s.advance()
                    break
                s.advance()
            skipped = True
        else:
            break
    return skipped


def _scan_quoted(s: _Scanner, quote: str) -> str:
    """Scan the body of a quoted atom or string; the opening quote has
    already been consumed."""
    chars: List[str] = []
    while True:
        if s.at_end():
            raise s.error("unterminated quoted token")
        ch = s.advance()
        if ch == quote:
            if s.peek() == quote:  # doubled quote = literal quote
                chars.append(s.advance())
                continue
            return "".join(chars)
        if ch == "\\":
            if s.at_end():
                raise s.error("unterminated escape")
            esc = s.advance()
            mapping = {
                "n": "\n", "t": "\t", "r": "\r", "a": "\a", "b": "\b",
                "f": "\f", "v": "\v", "\\": "\\", "'": "'", '"': '"',
                "`": "`", "0": "\0",
            }
            if esc == "\n":
                continue  # escaped newline: line continuation
            if esc == "x":
                digits = []
                while s.peek() and s.peek() in "0123456789abcdefABCDEF":
                    digits.append(s.advance())
                if s.peek() == "\\":
                    s.advance()
                if not digits:
                    raise s.error("bad \\x escape")
                chars.append(chr(int("".join(digits), 16)))
                continue
            if esc in mapping:
                chars.append(mapping[esc])
                continue
            raise s.error("unknown escape \\%s" % esc)
        chars.append(ch)


def _scan_token(s: _Scanner, layout_before: bool) -> Token:
    line, column = s.line, s.column
    ch = s.peek()

    def tok(kind: str, text: str) -> Token:
        return Token(kind, text, line, column, layout_before)

    # Variables: _ or uppercase start.
    if ch == "_" or ch.isalpha() and ch.isupper():
        chars = [s.advance()]
        while s.peek().isalnum() or s.peek() == "_":
            chars.append(s.advance())
        return tok("var", "".join(chars))

    # Unquoted atoms: lowercase start.
    if ch.isalpha():
        chars = [s.advance()]
        while s.peek().isalnum() or s.peek() == "_":
            chars.append(s.advance())
        return tok("atom", "".join(chars))

    # Numbers, including 0'c character codes.  Digits are ASCII only:
    # other Unicode digits ('²', '٣') are not letters or symbols either,
    # so they fall through to the unexpected-character error.
    if ch in DIGITS:
        if ch == "0" and s.peek(1) == "'":
            s.advance()
            s.advance()
            if s.at_end():
                raise s.error("unterminated character code")
            code_char = s.advance()
            if code_char == "\\":
                esc = s.advance()
                mapping = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\",
                           "'": "'", '"': '"', "0": "\0", "a": "\a",
                           "b": "\b", "f": "\f", "v": "\v"}
                if esc not in mapping:
                    raise s.error("unknown escape in character code")
                code_char = mapping[esc]
            elif code_char == "'" and s.peek() == "'":
                s.advance()  # 0''' is the quote character itself
            return tok("int", "0'" + code_char)
        chars = [s.advance()]
        while s.peek() in DIGITS:
            chars.append(s.advance())
        return tok("int", "".join(chars))

    # Quoted atoms and strings.
    if ch == "'":
        s.advance()
        return tok("atom", _scan_quoted(s, "'"))
    if ch == '"':
        s.advance()
        return tok("string", _scan_quoted(s, '"'))

    # Punctuation.
    if ch in PUNCT_CHARS:
        s.advance()
        return tok("punct", ch)

    # Solo characters are atoms by themselves.
    if ch in SOLO_CHARS:
        s.advance()
        return tok("atom", ch)

    # Symbol atoms (maximal munch), with special end-of-clause handling:
    # a '.' followed by layout or EOF terminates the clause.
    if ch in SYMBOL_CHARS:
        if ch == "." and (s.peek(1) == "" or s.peek(1).isspace()
                          or s.peek(1) == "%"):
            s.advance()
            return tok("end", ".")
        chars = [s.advance()]
        while s.peek() in SYMBOL_CHARS:
            chars.append(s.advance())
        return tok("atom", "".join(chars))

    raise s.error("unexpected character %r" % ch)


def tokenize(text: str) -> List[Token]:
    """Tokenize Prolog source text into a list ending with an eof token."""
    s = _Scanner(text)
    tokens: List[Token] = []
    while True:
        layout = _skip_layout(s)
        if s.at_end():
            tokens.append(Token("eof", "", s.line, s.column, layout))
            return tokens
        tokens.append(_scan_token(s, layout))
