"""Program representation: clauses, procedures, programs.

A :class:`Program` groups parsed clauses by predicate indicator
``(name, arity)`` and keeps directives separately.  The analyser works
on the *normalized* form produced by :mod:`repro.prolog.normalize`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .._record import Record
from .operators import OperatorTable
from .parser import parse_clauses_located
from .terms import Atom, Struct, Term, format_term

__all__ = ["PredId", "Clause", "Procedure", "Program", "parse_program"]

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


def parse_program(text: str,
                  operators: Optional[OperatorTable] = None) -> Program:
    """Parse Prolog source text into a :class:`Program`."""
    program = Program()
    for term, line in parse_clauses_located(text, operators):
        if isinstance(term, Struct) and term.name == ":-" and term.arity == 1:
            program.directives.append(term.args[0])
            program.directive_lines.append(line)
            continue
        program.add_clause(clause_from_term(term, line))
    return program
