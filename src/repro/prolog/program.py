"""Program representation: clauses, procedures, programs.

A :class:`Program` groups parsed clauses by predicate indicator
``(name, arity)`` and keeps directives separately.  The analyser works
on the *normalized* form produced by :mod:`repro.prolog.normalize`.

**The front-end memo.**  Parsing a clause depends only on its text,
the operator table in force and how many anonymous variables came
before it in the file (``_`` reads as ``_G<n>``, numbered across the
file).  So :func:`parse_program` splits the source at its end dots in
one compiled-regex scan, whose alternatives skip quoted atoms,
strings, comments, ``0'c`` codes and symbol runs as the tokenizer
reads them, and looks each clause text up in one bounded, process-wide
memo (the ``"clause_text"`` table of :mod:`repro.typegraph.opcache`,
so :func:`~repro.typegraph.opcache.clear` empties it).  An entry keeps
the parsed term, the clause's ``repr`` (what program hashing reads,
:func:`clause_text`) and its normalized clauses
(:meth:`_FrontEndMemo.of_clause` finds a clause's entry).  Every :class:`Clause` is built fresh, with
the line of its first token in this text.

* A clause text enters the memo when it is read a second time, so the
  one-off clauses of served edits leave nothing behind.
* An entry whose clause reads anonymous variables holds the number it
  started from; where another number is due, the clause is read again.
* Once a text applies an ``op/3`` directive, its later clauses are
  keyed by the operator table in force.
* A text the scan cannot split whole, or a clause that does not parse
  alone, is parsed the old way, as one token stream, so errors keep
  their line and column.  An explicit ``operators`` table bypasses the
  memo.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Optional, Tuple

from .._record import Record
from ..typegraph import opcache
from .operators import OperatorTable
from .parser import (ParseError, Parser, apply_op_directive, head_callable,
                     parse_clauses_located)
from .reader import TokenizeError, tokenize
from .terms import Atom, Struct, Term, format_term

__all__ = ["PredId", "Clause", "Procedure", "Program", "parse_program",
           "clause_text", "FRONT_END_MEMO"]

PredId = Tuple[str, int]


def _split_conjunction(term: Term) -> List[Term]:
    """Flatten a ','/2 conjunction into a goal list; ``true`` → []."""
    if isinstance(term, Atom) and term.name == "true":
        return []
    if isinstance(term, Struct) and term.name == "," and term.arity == 2:
        return _split_conjunction(term.args[0]) + \
            _split_conjunction(term.args[1])
    return [term]


class Clause(Record):
    """A source clause ``head :- body`` (body is a goal list).
    ``line`` is the 1-based source line of the clause's first token
    (None when the clause was built programmatically) — the anchor
    assertion blame slices report."""

    __slots__ = ("head", "body", "line")

    def __init__(self, head: Term, body: List[Term],
                 line: Optional[int] = None) -> None:
        self.head = head
        self.body = body
        self.line = line

    @property
    def pred(self) -> PredId:
        if isinstance(self.head, Atom):
            return (self.head.name, 0)
        if isinstance(self.head, Struct):
            return (self.head.name, self.head.arity)
        raise ValueError("clause head is not callable: %r" % (self.head,))

    def __repr__(self) -> str:
        if not self.body:
            return format_term(self.head) + "."
        goals = ", ".join(format_term(g) for g in self.body)
        return "%s :- %s." % (format_term(self.head), goals)


class Procedure(Record):
    """All clauses for one predicate, in source order."""

    __slots__ = ("pred", "clauses")

    def __init__(self, pred: PredId,
                 clauses: Optional[List[Clause]] = None) -> None:
        self.pred = pred
        self.clauses = [] if clauses is None else clauses

    @property
    def name(self) -> str:
        return self.pred[0]

    @property
    def arity(self) -> int:
        return self.pred[1]


class Program(Record):
    """A Prolog program: procedures plus directives, in source order."""

    __slots__ = ("procedures", "directives", "directive_lines", "order")

    def __init__(self, procedures: Optional[Dict[PredId, Procedure]] = None,
                 directives: Optional[List[Term]] = None,
                 directive_lines: Optional[List[int]] = None,
                 order: Optional[List[PredId]] = None) -> None:
        self.procedures = {} if procedures is None else procedures
        self.directives = [] if directives is None else directives
        #: source line per directive, parallel to ``directives`` (0
        #: when unknown — directives added programmatically).
        self.directive_lines = ([] if directive_lines is None
                                else directive_lines)
        self.order = [] if order is None else order

    def add_clause(self, clause: Clause) -> None:
        pred = clause.pred
        if pred not in self.procedures:
            self.procedures[pred] = Procedure(pred)
            self.order.append(pred)
        self.procedures[pred].clauses.append(clause)

    def procedure(self, pred: PredId) -> Optional[Procedure]:
        return self.procedures.get(pred)

    def defined(self, pred: PredId) -> bool:
        return pred in self.procedures

    @property
    def num_procedures(self) -> int:
        return len(self.procedures)

    @property
    def num_clauses(self) -> int:
        return sum(len(p.clauses) for p in self.procedures.values())

    def all_clauses(self) -> List[Clause]:
        return [c for pid in self.order
                for c in self.procedures[pid].clauses]

    def __repr__(self) -> str:
        return "<Program: %d procedures, %d clauses>" % (
            self.num_procedures, self.num_clauses)


def clause_from_term(term: Term, line: Optional[int] = None) -> Clause:
    """Interpret a parsed term as a clause (fact or rule)."""
    if isinstance(term, Struct) and term.name == ":-" and term.arity == 2:
        return Clause(term.args[0], _split_conjunction(term.args[1]), line)
    return Clause(term, [], line)


def _program_of(located) -> Program:
    """The program of ``(clause term, line)`` pairs in source order."""
    program = Program()
    for term, line in located:
        if isinstance(term, Struct) and term.name == ":-" and term.arity == 1:
            program.directives.append(term.args[0])
            program.directive_lines.append(line)
            continue
        program.add_clause(clause_from_term(term, line))
    return program


def parse_program(text: str,
                  operators: Optional[OperatorTable] = None) -> Program:
    """Parse Prolog source text into a :class:`Program`, through the
    front-end memo (see the module docstring) unless ``operators`` is
    given."""
    if operators is None:
        program = FRONT_END_MEMO.parse(text)
        if program is not None:
            return program
    return _program_of(parse_clauses_located(text, operators))


# -- the front-end memo ------------------------------------------------------

#: Layout, as the tokenizer skips it.
_LAYOUT = r"\s+|%[^\n]*|/\*.*?\*/"
#: A stretch of text skipped as the tokenizer reads it: whitespace,
#: punctuation and solo characters and names or digit runs (one that
#: starts a ``0'c`` code stops before it), a symbol run that is not an
#: end dot or a comment, a quoted atom or string (with its doubled
#: quotes and escapes), a ``0'c`` code, or a comment.
_TOKEN = "|".join((
    r"(?:[\s()\[\]{}!,;|]++|(?!0')\w++)++",
    r"(?!/\*|\.(?:\s|%|\Z))[-+*/\\^<>=~:.?@#&$]++",
    r"'(?>[^'\\]+|''|\\x[0-9a-fA-F]*\\?|\\.)*+'",
    r'"(?>[^"\\]+|""|\\x[0-9a-fA-F]*\\?|\\.)*+"',
    r"0'(?>\\.|''|.)",
    r"%[^\n]*|/\*.*?\*/"))
#: One clause: the layout before it, then (group 1) its text from its
#: first token through its end dot.
_CLAUSE = re.compile(r"(?>" + _LAYOUT + r")*+((?>" + _TOKEN
                     + r")*+\.)(?=\s|%|\Z)", re.DOTALL).match
#: What may follow the last clause.
_TRAILING = re.compile(r"(?>" + _LAYOUT + r")*+\Z", re.DOTALL).match


def _clause_parts(term: Term) -> Tuple[Optional[Term],
                                        Optional[List[Term]]]:
    """``(head, goals)`` of a clause term as :func:`clause_from_term`
    reads it, or ``(None, None)`` for a directive."""
    if isinstance(term, Struct) and term.name == ":-":
        if term.arity == 1:
            return None, None
        if term.arity == 2:
            return term.args[0], _split_conjunction(term.args[1])
    return term, []


class _Parsed:
    """What the front-end memo keeps of one clause text: its term, its
    head and goal list (None for a directive), shared by every
    :class:`Clause` built from it, the number of anonymous variables
    it reads and the one it was numbered from, its ``repr`` once asked
    for, and its normalized clauses once computed (see
    :func:`repro.prolog.normalize.normalize_program`)."""

    __slots__ = ("term", "head", "body", "anon", "base", "text", "norm")

    def __init__(self, term: Term, head: Optional[Term],
                 body: Optional[List[Term]], anon: int, base: int) -> None:
        self.term = term
        self.head = head
        self.body = body
        self.anon = anon
        self.base = base
        self.text: Optional[str] = None
        self.norm = None


class _FrontEndMemo(opcache.OpCache):
    """``(operator table key or None, clause text)`` -> :class:`_Parsed`,
    least recently used first, plus an index from each entry's goal
    list to the entry, through which a :class:`Clause` finds the entry
    it was built from.  A server parses on its event-loop thread and
    normalizes on its analysis thread: a lock guards the table, held
    for the whole of one :meth:`parse`, and the index is read with
    single dict lookups."""

    __slots__ = ("_lock", "_by_body", "_seen")

    in_snapshot = False

    def __init__(self, name: str, maxsize: int) -> None:
        super().__init__(name, maxsize)
        self._lock = threading.Lock()
        self._by_body: Dict[int, _Parsed] = {}
        #: hashes of the keys that missed once (see :meth:`_seen_before`)
        self._seen: Dict[int, None] = {}

    def parse(self, text: str) -> Optional[Program]:
        """:func:`parse_program` through the memo, or None where the
        text must be parsed whole (see the module docstring)."""
        with self._lock:
            return self._parse(text)

    def _parse(self, text: str) -> Optional[Program]:
        table = self._table
        program = Program()
        parser: Optional[Parser] = None
        ops_key = None
        anon = 0
        line = 1
        start = stop = 0
        match = _CLAUSE(text)
        while match is not None:
            line += text.count("\n", stop, match.start(1))
            start, stop = match.span(1)
            key = (ops_key, text[start:stop])
            parsed = table.get(key)
            if parsed is not None and (not parsed.anon
                                       or parsed.base == anon):
                table.move_to_end(key)
                self.hits += 1
                term, head, body = parsed.term, parsed.head, parsed.body
                anon += parsed.anon
            else:
                self.misses += 1
                if parser is None:
                    parser = Parser([])
                parser.pos = 0
                parser._anon_counter = anon
                try:
                    parser.tokens = tokenize(key[1])
                    term = parser.parse_clause()
                except (ParseError, TokenizeError):
                    return None
                if not parser.at_eof() or not head_callable(term):
                    return None
                head, body = _clause_parts(term)
                if parsed is not None or self._seen_before(key):
                    self._put(key, _Parsed(term, head, body,
                                           parser._anon_counter - anon,
                                           anon))
                anon = parser._anon_counter
            if body is not None:
                program.add_clause(Clause(head, body, line))
            else:
                program.directives.append(term.args[0])
                program.directive_lines.append(line)
                if parser is None:
                    parser = Parser([])
                try:
                    if apply_op_directive(term, parser.ops):
                        ops_key = parser.ops.key()
                except ValueError:
                    return None
            line += text.count("\n", start, stop)
            match = _CLAUSE(text, stop)
        if _TRAILING(text, stop) is None:
            return None
        return program

    def _seen_before(self, key: tuple) -> bool:
        """Whether ``key`` missed before; records that it did.  Only a
        clause text read twice enters the table, so a text read once
        (a served edit's new clause) leaves no entry behind."""
        seen = self._seen
        digest = hash(key)
        if digest in seen:
            return True
        if len(seen) >= 4 * self.maxsize:
            seen.clear()
        seen[digest] = None
        return False

    def _put(self, key: tuple, parsed: _Parsed) -> None:
        table = self._table
        by_body = self._by_body
        old = table.pop(key, None)
        if old is not None and old.body is not None:
            del by_body[id(old.body)]
        table[key] = parsed
        if parsed.body is not None:
            by_body[id(parsed.body)] = parsed
        if len(table) > self.maxsize:
            _, old = table.popitem(last=False)
            if old.body is not None:
                del by_body[id(old.body)]

    def of_clause(self, clause: "Clause") -> Optional[_Parsed]:
        """The entry ``clause`` was built from, if it is still held and
        the clause's head and goals are still its own."""
        parsed = self._by_body.get(id(clause.body))
        if parsed is None or parsed.body is not clause.body \
                or parsed.head is not clause.head:
            return None
        return parsed

    def clear(self) -> None:
        with self._lock:
            self._table.clear()
            self._by_body.clear()
            self._seen.clear()


#: Entries of the front-end memo.  The ten Table-1 programs and the
#: assertion demo hold 717 clause texts, about 1.9 MiB of entries
#: (2.7 KiB each, traced with ``tracemalloc``); the bound leaves room
#: for a few hundred more.
_FRONT_END_SIZE = 1024

FRONT_END_MEMO = opcache.register(
    _FrontEndMemo("clause_text", _FRONT_END_SIZE))


def clause_text(clause: Clause) -> str:
    """``repr(clause)``, kept in the front-end memo entry of a parsed
    clause."""
    parsed = FRONT_END_MEMO.of_clause(clause)
    if parsed is None:
        return repr(clause)
    text = parsed.text
    if text is None:
        text = parsed.text = repr(clause)
    return text
