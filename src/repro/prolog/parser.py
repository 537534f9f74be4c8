"""Operator-precedence parser for Prolog.

Turns token streams from :mod:`repro.prolog.reader` into
:class:`repro.prolog.terms.Term` values, honouring the operator table.
The top-level entry points are :func:`parse_term`, :func:`parse_clauses`
and :func:`parse_program_text`.

Nesting is bounded: a term nested deeper than :data:`MAX_DEPTH` levels
is a :class:`ParseError` with a position, never a ``RecursionError``.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from .operators import MAX_PRIORITY, OperatorTable, default_operators
from .reader import Token, tokenize
from .terms import Atom, Int, Struct, Term, Var, make_list

__all__ = ["ParseError", "Parser", "parse_term", "parse_clauses",
           "parse_clauses_located", "MAX_DEPTH"]

_ARG_PRIORITY = 999  # max priority inside argument lists / list elements

#: Deepest term nesting the parser accepts.  The top-level term is
#: level 1; every argument, list element, parenthesised or braced term,
#: and prefix or right-hand operator operand opens one more, so a
#: clause body of N goals nests about N levels deep.
MAX_DEPTH = 500

#: Recursion limit the parser ensures: each level costs it up to three
#: Python frames, and the term walks after it (normalization, the
#: analysis) need headroom of their own for a term at ``MAX_DEPTH``.
_RECURSION_LIMIT = 6 * MAX_DEPTH


class ParseError(SyntaxError):
    def __init__(self, message: str, token: Token) -> None:
        super().__init__(
            "%s at line %d, column %d (near %r)"
            % (message, token.line, token.column, token.text or "<eof>"))
        self.token = token


class Parser:
    """Parses one clause (terminated by the end dot) at a time."""

    def __init__(self, tokens: List[Token],
                 operators: Optional[OperatorTable] = None) -> None:
        self.tokens = tokens
        self.pos = 0
        self.ops = operators if operators is not None else default_operators()
        self.varmap: Dict[str, Var] = {}
        self._anon_counter = 0
        #: source line of the most recently started clause
        self.clause_line = 0
        #: nesting depth of the term being parsed (see MAX_DEPTH)
        self.depth = 0
        if sys.getrecursionlimit() < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)

    # -- token plumbing ---------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.peek()
        if token.kind != kind or (text is not None and token.text != text):
            raise ParseError("expected %s" % (text or kind), token)
        return self.advance()

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"

    # -- variables --------------------------------------------------------

    def _variable(self, name: str) -> Var:
        if name == "_":
            self._anon_counter += 1
            return Var("_G%d" % self._anon_counter)
        var = self.varmap.get(name)
        if var is None:
            var = Var(name)
            self.varmap[name] = var
        return var

    # -- term parsing -----------------------------------------------------

    def parse_term(self, max_priority: int = MAX_PRIORITY) -> Term:
        if self.depth >= MAX_DEPTH:
            raise ParseError("term nested deeper than %d levels"
                             % MAX_DEPTH, self.peek())
        self.depth += 1
        left, left_priority = self._parse_primary(max_priority)
        term = self._parse_operators(left, left_priority, max_priority)
        self.depth -= 1
        return term

    def _parse_operators(self, left: Term, left_priority: int,
                         max_priority: int) -> Term:
        while True:
            token = self.peek()
            if token.kind != "atom":
                return left
            name = token.text
            infix = self.ops.infix(name)
            postfix = self.ops.postfix(name)
            if infix is not None and infix.priority <= max_priority \
                    and left_priority <= infix.left_max():
                self.advance()
                right = self.parse_term(infix.right_max())
                display = ";" if name == "|" else name
                left = Struct(display, (left, right))
                left_priority = infix.priority
                continue
            if postfix is not None and postfix.priority <= max_priority \
                    and left_priority <= postfix.left_max():
                self.advance()
                left = Struct(name, (left,))
                left_priority = postfix.priority
                continue
            return left

    def _parse_primary(self, max_priority: int) -> Tuple[Term, int]:
        token = self.peek()
        if token.kind == "var":
            self.advance()
            return self._variable(token.text), 0
        if token.kind == "int":
            self.advance()
            return Int(token.value), 0
        if token.kind == "string":
            self.advance()
            codes = [Int(ord(c)) for c in token.text]
            return make_list(codes), 0
        if token.kind == "punct":
            if token.text == "(":
                self.advance()
                inner = self.parse_term(MAX_PRIORITY)
                self.expect("punct", ")")
                return inner, 0
            if token.text == "[":
                return self._parse_list(), 0
            if token.text == "{":
                self.advance()
                if self.peek().kind == "punct" and self.peek().text == "}":
                    self.advance()
                    return Atom("{}"), 0
                inner = self.parse_term(MAX_PRIORITY)
                self.expect("punct", "}")
                return Struct("{}", (inner,)), 0
            raise ParseError("unexpected token", token)
        if token.kind == "atom":
            return self._parse_atom_primary(token, max_priority)
        raise ParseError("unexpected token", token)

    def _parse_atom_primary(self, token: Token,
                            max_priority: int) -> Tuple[Term, int]:
        name = token.text
        self.advance()
        nxt = self.peek()

        # Functor application: name immediately followed by '('.
        if nxt.kind == "punct" and nxt.text == "(" and not nxt.layout_before:
            self.advance()
            args = [self.parse_term(_ARG_PRIORITY)]
            while self.peek().kind == "atom" and self.peek().text == ",":
                self.advance()
                args.append(self.parse_term(_ARG_PRIORITY))
            self.expect("punct", ")")
            return Struct(name, tuple(args)), 0

        # Negative number literal: '-' directly before an integer.
        if name == "-" and nxt.kind == "int" and not nxt.layout_before:
            self.advance()
            return Int(-nxt.value), 0

        # Prefix operator attempt.
        prefix = self.ops.prefix(name)
        if prefix is not None and prefix.priority <= max_priority \
                and self._starts_term(nxt):
            operand = self.parse_term(prefix.right_max())
            return Struct(name, (operand,)), prefix.priority

        # Plain atom.  If it is an operator used as an atom, it carries
        # its priority (relevant for things like (:-)).
        priority = 0
        if self.ops.is_operator(name):
            infix = self.ops.infix(name)
            pre = self.ops.prefix(name)
            priority = max(op.priority for op in (infix, pre) if op)
        return Atom(name), priority

    def _starts_term(self, token: Token) -> bool:
        """Can ``token`` begin a term (so a prefix op applies)?"""
        if token.kind in ("var", "int", "string"):
            return True
        if token.kind == "punct":
            return token.text in ("(", "[", "{")
        if token.kind == "atom":
            if token.text == ",":
                return False
            # An infix-only operator cannot start a term unless it could
            # itself be an atom operand; accept and let recursion decide.
            return True
        return False

    def _parse_list(self) -> Term:
        self.expect("punct", "[")
        if self.peek().kind == "punct" and self.peek().text == "]":
            self.advance()
            return Atom("[]")
        elements = [self.parse_term(_ARG_PRIORITY)]
        while self.peek().kind == "atom" and self.peek().text == ",":
            self.advance()
            elements.append(self.parse_term(_ARG_PRIORITY))
        tail: Term = Atom("[]")
        if self.peek().kind == "atom" and self.peek().text == "|":
            self.advance()
            tail = self.parse_term(_ARG_PRIORITY)
        self.expect("punct", "]")
        return make_list(elements, tail)

    # -- clause-level parsing ---------------------------------------------

    def parse_clause(self) -> Optional[Term]:
        """Parse one clause term (up to the end dot); None at eof.
        The variable map is reset per clause; the source line of the
        clause's first token lands in :attr:`clause_line` (the anchor
        assertion blame reports point at)."""
        if self.at_eof():
            return None
        self.varmap = {}
        self.clause_line = self.peek().line
        term = self.parse_term(MAX_PRIORITY)
        self.expect("end")
        return term


def parse_term(text: str, operators: Optional[OperatorTable] = None) -> Term:
    """Parse a single term from ``text`` (trailing dot optional)."""
    tokens = tokenize(text)
    parser = Parser(tokens, operators)
    term = parser.parse_term(MAX_PRIORITY)
    if parser.peek().kind == "end":
        parser.advance()
    if not parser.at_eof():
        raise ParseError("trailing input", parser.peek())
    return term


def parse_clauses(text: str,
                  operators: Optional[OperatorTable] = None) -> List[Term]:
    """Parse all clause terms in ``text``, applying ``:- op(...)``
    directives to the operator table as they are encountered."""
    return [term for term, _ in parse_clauses_located(text, operators)]


def parse_clauses_located(text: str,
                          operators: Optional[OperatorTable] = None
                          ) -> List[Tuple[Term, int]]:
    """Like :func:`parse_clauses`, but each clause term comes with the
    1-based source line of its first token — the anchor the assertion
    checker's blame reports render."""
    ops = operators if operators is not None else default_operators()
    parser = Parser(tokenize(text), ops)
    clauses: List[Tuple[Term, int]] = []
    while True:
        clause = parser.parse_clause()
        if clause is None:
            return clauses
        if (isinstance(clause, Struct) and clause.name == ":-"
                and clause.arity == 1):
            directive = clause.args[0]
            if (isinstance(directive, Struct) and directive.name == "op"
                    and directive.arity == 3):
                pri, typ, names = directive.args
                if isinstance(pri, Int) and isinstance(typ, Atom):
                    from .terms import list_elements
                    name_terms, _ = list_elements(names)
                    if not name_terms:
                        name_terms = [names]
                    for nt in name_terms:
                        if isinstance(nt, Atom):
                            ops.add(nt.name, pri.value, typ.name)
        clauses.append((clause, parser.clause_line))
