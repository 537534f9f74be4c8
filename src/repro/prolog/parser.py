"""Operator-precedence parser for Prolog.

Turns token streams from :mod:`repro.prolog.reader` into
:class:`repro.prolog.terms.Term` values, honouring the operator table.
The top-level entry points are :func:`parse_term`, :func:`parse_clauses`
and :func:`parse_clauses_located`.  The front-end memo of
:mod:`repro.prolog.program` also drives one :class:`Parser` a clause
at a time: it hands it each clause text the memo misses, with
``tokens``, ``pos`` and the anonymous-variable count set for that
clause, and checks the result with :func:`head_callable` and
:func:`apply_op_directive` as :func:`parse_clauses_located` does.

Each operator token costs one lookup in
:attr:`~repro.prolog.operators.OperatorTable.definitions`.  Nesting is
bounded: a term nested deeper than :data:`MAX_DEPTH` levels
is a :class:`ParseError` with a position, never a ``RecursionError``.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from .operators import MAX_PRIORITY, OperatorTable, default_operators
from .reader import Token, tokenize
from .terms import Atom, Int, Struct, Term, Var, list_elements, make_list

__all__ = ["ParseError", "Parser", "parse_term", "parse_clauses",
           "parse_clauses_located", "head_callable", "apply_op_directive",
           "MAX_DEPTH"]

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
        #: first token of the most recently started clause
        self.clause_start: Optional[Token] = None
        #: nesting depth of the term being parsed (see MAX_DEPTH)
        self.depth = 0
        if sys.getrecursionlimit() < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        # ``tokenize`` ends every stream with an eof token and
        # ``advance`` never steps past it, so ``pos`` is always in range.
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.tokens[self.pos]
        if token.kind != kind or (text is not None and token.text != text):
            raise ParseError("expected %s" % (text or kind), token)
        if kind != "eof":
            self.pos += 1
        return token

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"

    # -- term parsing -----------------------------------------------------

    def parse_term(self, max_priority: int = MAX_PRIORITY) -> Term:
        if self.depth >= MAX_DEPTH:
            raise ParseError("term nested deeper than %d levels"
                             % MAX_DEPTH, self.peek())
        self.depth += 1
        tokens = self.tokens
        token = tokens[self.pos]
        if token.kind == "var":
            # ``_`` is a fresh ``_G<n>``, numbered across the file; any
            # other name is one variable per clause.
            self.pos += 1
            name = token.text
            if name == "_":
                self._anon_counter += 1
                left = Var("_G%d" % self._anon_counter)
            else:
                left = self.varmap.get(name)
                if left is None:
                    left = self.varmap[name] = Var(name)
            left_priority = 0
        else:
            left, left_priority = self._parse_primary(max_priority)
        # Operators after the primary, left to right.
        definitions = self.ops.definitions
        while True:
            token = tokens[self.pos]
            if token.kind != "atom":
                break
            name = token.text
            entry = definitions.get(name)
            if entry is None:
                break
            op = entry[0]  # the infix or postfix definition
            if op is None or op.priority > max_priority \
                    or left_priority > op.left_max():
                break
            self.pos += 1
            if op.type in ("xf", "yf"):
                left = Struct(name, (left,))
            else:
                right = self.parse_term(op.right_max())
                left = Struct(";" if name == "|" else name, (left, right))
            left_priority = op.priority
        self.depth -= 1
        return left

    def _parse_primary(self, max_priority: int) -> Tuple[Term, int]:
        """The primary term at a token that is not a variable (those
        :meth:`parse_term` reads itself), with its priority."""
        token = self.tokens[self.pos]
        kind = token.kind
        if kind == "atom":
            return self._parse_atom_primary(token, max_priority)
        if kind == "punct":
            if token.text == "(":
                self.pos += 1
                inner = self.parse_term(MAX_PRIORITY)
                self.expect("punct", ")")
                return inner, 0
            if token.text == "[":
                return self._parse_list(), 0
            if token.text == "{":
                self.pos += 1
                if self.peek().kind == "punct" and self.peek().text == "}":
                    self.advance()
                    return Atom("{}"), 0
                inner = self.parse_term(MAX_PRIORITY)
                self.expect("punct", "}")
                return Struct("{}", (inner,)), 0
            raise ParseError("unexpected token", token)
        if kind == "int":
            self.pos += 1
            return Int(token.value), 0
        if kind == "string":
            self.pos += 1
            codes = [Int(ord(c)) for c in token.text]
            return make_list(codes), 0
        raise ParseError("unexpected token", token)

    def _parse_atom_primary(self, token: Token,
                            max_priority: int) -> Tuple[Term, int]:
        name = token.text
        tokens = self.tokens
        self.pos += 1
        nxt = tokens[self.pos]

        # Functor application: name immediately followed by '('.
        if nxt.kind == "punct" and nxt.text == "(" and not nxt.layout_before:
            self.pos += 1
            args = [self.parse_term(_ARG_PRIORITY)]
            while True:
                token = tokens[self.pos]
                if token.kind != "atom" or token.text != ",":
                    break
                self.pos += 1
                args.append(self.parse_term(_ARG_PRIORITY))
            self.expect("punct", ")")
            return Struct(name, tuple(args)), 0

        # Negative number literal: '-' directly before an integer.
        if name == "-" and nxt.kind == "int" and not nxt.layout_before:
            self.pos += 1
            return Int(-nxt.value), 0

        entry = self.ops.definitions.get(name)
        if entry is None:
            return Atom(name), 0
        # Prefix operator attempt.
        prefix = entry[1]
        if prefix is not None and prefix.priority <= max_priority \
                and self._starts_term(nxt):
            operand = self.parse_term(prefix.right_max())
            return Struct(name, (operand,)), prefix.priority

        # Plain atom.  An operator used as an atom carries its highest
        # priority as infix, postfix or prefix operator (relevant for
        # things like (:-)).
        return Atom(name), max(op.priority for op in entry if op)

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
        tokens = self.tokens
        token = tokens[self.pos]
        if token.kind == "punct" and token.text == "]":
            self.pos += 1
            return Atom("[]")
        elements = [self.parse_term(_ARG_PRIORITY)]
        while True:
            token = tokens[self.pos]
            if token.kind != "atom" or token.text != ",":
                break
            self.pos += 1
            elements.append(self.parse_term(_ARG_PRIORITY))
        tail: Term = Atom("[]")
        if token.kind == "atom" and token.text == "|":
            self.pos += 1
            tail = self.parse_term(_ARG_PRIORITY)
        self.expect("punct", "]")
        return make_list(elements, tail)

    # -- clause-level parsing ---------------------------------------------

    def parse_clause(self) -> Optional[Term]:
        """Parse one clause term (up to the end dot); None at eof.
        The variable map is reset per clause; the clause's first token
        lands in :attr:`clause_start` (its line is the anchor assertion
        blame reports point at)."""
        if self.at_eof():
            return None
        self.varmap = {}
        self.clause_start = self.peek()
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


def head_callable(clause: Term) -> bool:
    """Is the head of clause term ``clause`` an atom or a compound?
    (A directive's head is the ``:-/1`` term itself.)"""
    head = clause.args[0] if (isinstance(clause, Struct)
                              and clause.name == ":-"
                              and clause.arity == 2) else clause
    return isinstance(head, (Atom, Struct))


def apply_op_directive(clause: Term, ops: OperatorTable) -> bool:
    """Apply ``clause`` to ``ops`` if it is a ``:- op(P, T, Names)``
    directive with an integer priority and an atom type; returns
    whether it was one.  A priority or type ``op/3`` rejects is a
    ``ValueError``."""
    if not (isinstance(clause, Struct) and clause.name == ":-"
            and clause.arity == 1):
        return False
    directive = clause.args[0]
    if not (isinstance(directive, Struct) and directive.name == "op"
            and directive.arity == 3):
        return False
    pri, typ, names = directive.args
    if not (isinstance(pri, Int) and isinstance(typ, Atom)):
        return False
    name_terms, _ = list_elements(names)
    if not name_terms:
        name_terms = [names]
    for nt in name_terms:
        if isinstance(nt, Atom):
            ops.add(nt.name, pri.value, typ.name)
    return True


def parse_clauses_located(text: str,
                          operators: Optional[OperatorTable] = None
                          ) -> List[Tuple[Term, int]]:
    """Like :func:`parse_clauses`, but each clause term comes with the
    1-based source line of its first token — the anchor the assertion
    checker's blame reports render.  A clause whose head is a variable
    or a number, and an ``op/3`` directive with a priority or type
    ``op/3`` rejects, are a :class:`ParseError` at the clause's first
    token."""
    ops = operators if operators is not None else default_operators()
    parser = Parser(tokenize(text), ops)
    clauses: List[Tuple[Term, int]] = []
    while True:
        clause = parser.parse_clause()
        if clause is None:
            return clauses
        if not head_callable(clause):
            head = clause.args[0] if isinstance(clause, Struct) else clause
            raise ParseError("clause head is not callable: %r" % (head,),
                             parser.clause_start)
        try:
            apply_op_directive(clause, ops)
        except ValueError as error:  # bad priority or type
            raise ParseError(str(error), parser.clause_start) from None
        clauses.append((clause, parser.clause_start.line))
