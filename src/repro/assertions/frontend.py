"""Assertion directives: the frontend of the verification product.

Programs declare intent inline, as ordinary Prolog directives the
parser already diverts into :attr:`repro.prolog.program.Program.directives`:

* ``:- assert_pattern(p/N, [Spec1, ..., SpecN]).`` — every computed
  success pattern (β_out) of ``p/N`` must lie below the declared
  pattern;
* ``:- assert_calls(p/N, [Spec1, ..., SpecN]).`` — every computed call
  pattern (β_in) of ``p/N`` must lie below it.

Each ``Spec`` is a term of the pattern-spec mini-language, one per
predicate argument:

=====================  ====================================================
spec                   meaning
=====================  ====================================================
``any``                any term (leaf ``Any``)
``int``                any integer (type-grammar leaf; ``any`` under the
                       baseline domain, which has no leaf information)
``list`` / ``codes``   any proper list / any list of integers
``list(G)``            a proper list of ``G`` (``G`` a grammar spec:
                       ``any``, ``int``, ``codes``, ``list(...)``)
``foo`` (other atom)   exactly the atom ``foo``
``atom(A)``            exactly the atom ``A`` (escape hatch for atoms
                       named like reserved words, e.g. ``atom(any)``)
``42`` (integer)       exactly that integer
``f(S1, ..., Sk)``     a compound with functor ``f/k`` whose arguments
                       match the sub-specs (``[S|T]`` list syntax works:
                       it is ``'.'/2``)
``X`` (variable)       any term, but every occurrence of ``X`` across
                       the spec list is the *same* value (a sharing
                       group)
=====================  ====================================================

An :class:`Assertion` stores the specs in canonical text form
(:func:`repro.prolog.terms.format_term`), which makes serialization,
hashing, and equality trivial and keeps the object independent of the
term representation.  :mod:`repro.assertions.compiler` lowers the specs
into the analysis domain.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .._record import FrozenRecord
from ..prolog.parser import parse_term
from ..prolog.program import PredId, Program
from ..prolog.terms import (Atom, Int, Struct, Term, Var, format_term,
                            list_elements)

__all__ = ["ASSERTION_DIRECTIVES", "Assertion", "AssertionSyntaxError",
           "assertion_from_directive", "harvest_assertions",
           "parse_assertion"]

#: Directive functors the frontend recognizes, mapped to verdict kind.
ASSERTION_DIRECTIVES = {"assert_pattern": "pattern",
                        "assert_calls": "calls"}

#: Reserved atoms of the grammar sublanguage (use ``atom(...)`` to
#: assert a literal atom with one of these names).
GRAMMAR_ATOMS = ("any", "int", "list", "codes")


class AssertionSyntaxError(ValueError):
    """A malformed assertion directive (wrong shape, unknown spec)."""


class Assertion(FrozenRecord):
    """One parsed assertion directive.

    ``kind`` is ``"pattern"`` (checks β_out) or ``"calls"`` (checks
    β_in); ``specs`` holds one canonical spec text per argument of
    ``pred``.  ``line`` is display-only provenance (excluded from
    equality/hashing so the same assertion at a different source line
    compares equal)."""

    __slots__ = ("kind", "pred", "specs", "line")
    _compare = ("kind", "pred", "specs")

    def __init__(self, kind: str, pred: PredId, specs: Tuple[str, ...],
                 line: int = 0) -> None:
        if kind not in ("pattern", "calls"):
            raise AssertionSyntaxError(
                "unknown assertion kind %r" % (kind,))
        if len(specs) != pred[1]:
            raise AssertionSyntaxError(
                "%s/%d assertion needs %d spec(s), got %d"
                % (pred[0], pred[1], pred[1], len(specs)))
        self.kind = kind
        self.pred = pred
        self.specs = specs
        self.line = line

    @property
    def directive(self) -> str:
        return ("assert_pattern" if self.kind == "pattern"
                else "assert_calls")

    @property
    def key(self) -> str:
        """Canonical one-line rendering — the stable identity blame
        slices and reports refer to."""
        return "%s(%s/%d, [%s])" % (self.directive, self.pred[0],
                                    self.pred[1], ", ".join(self.specs))

    def spec_terms(self) -> Tuple[Term, ...]:
        """The specs re-parsed as terms (canonical text round-trips
        through the default operator table)."""
        return tuple(parse_term(text) for text in self.specs)

    def to_obj(self) -> dict:
        return {"kind": self.kind, "pred": list(self.pred),
                "specs": list(self.specs), "line": self.line}

    @classmethod
    def from_obj(cls, data: dict) -> "Assertion":
        return cls(kind=data["kind"],
                   pred=(data["pred"][0], int(data["pred"][1])),
                   specs=tuple(data["specs"]),
                   line=int(data.get("line") or 0))


def _validate_spec(term: Term, context: str) -> None:
    """Reject specs the compiler cannot lower (fail at parse time, not
    inside a worker process)."""
    if isinstance(term, (Var, Int)):
        return
    if isinstance(term, Atom):
        return  # reserved words and literal atoms are both fine
    if isinstance(term, Struct):
        if term.name == "atom" and term.arity == 1:
            if not isinstance(term.args[0], Atom):
                raise AssertionSyntaxError(
                    "%s: atom(...) takes a plain atom, got %s"
                    % (context, format_term(term.args[0])))
            return
        if term.name == "list" and term.arity == 1:
            _validate_grammar_spec(term.args[0], context)
            return
        for arg in term.args:
            _validate_spec(arg, context)
        return
    raise AssertionSyntaxError("%s: cannot use %s as a spec"
                               % (context, format_term(term)))


def _validate_grammar_spec(term: Term, context: str) -> None:
    if isinstance(term, Atom) and term.name in GRAMMAR_ATOMS:
        return
    if isinstance(term, Struct) and term.name == "list" \
            and term.arity == 1:
        _validate_grammar_spec(term.args[0], context)
        return
    raise AssertionSyntaxError(
        "%s: list(...) takes a grammar spec (%s or list(...)), got %s"
        % (context, "/".join(GRAMMAR_ATOMS), format_term(term)))


def assertion_from_directive(term: Term,
                             line: int = 0) -> Optional[Assertion]:
    """Parse one directive term into an :class:`Assertion`; None when
    the directive is not an assertion at all.  Raises
    :class:`AssertionSyntaxError` on a malformed assertion."""
    if not isinstance(term, Struct):
        return None
    kind = ASSERTION_DIRECTIVES.get(term.name)
    if kind is None:
        return None
    if term.arity != 2:
        raise AssertionSyntaxError(
            "%s takes 2 arguments (p/N, [specs]), got %d"
            % (term.name, term.arity))
    indicator, spec_list = term.args
    if not (isinstance(indicator, Struct) and indicator.name == "/"
            and indicator.arity == 2
            and isinstance(indicator.args[0], Atom)
            and isinstance(indicator.args[1], Int)
            and indicator.args[1].value >= 0):
        raise AssertionSyntaxError(
            "%s: first argument must be name/arity, got %s"
            % (term.name, format_term(indicator)))
    pred = (indicator.args[0].name, indicator.args[1].value)
    specs, tail = list_elements(spec_list)
    if tail != Atom("[]"):
        raise AssertionSyntaxError(
            "%s: second argument must be a proper list of specs, got %s"
            % (term.name, format_term(spec_list)))
    context = "%s(%s/%d)" % (term.name, pred[0], pred[1])
    for spec in specs:
        _validate_spec(spec, context)
    return Assertion(kind, pred,
                     tuple(format_term(spec) for spec in specs), line)


def harvest_assertions(program: Program) -> Tuple[Assertion, ...]:
    """All assertion directives of ``program``, in source order."""
    lines = list(getattr(program, "directive_lines", ()) or ())
    lines += [0] * (len(program.directives) - len(lines))
    found: List[Assertion] = []
    for directive, line in zip(program.directives, lines):
        assertion = assertion_from_directive(directive, line)
        if assertion is not None:
            found.append(assertion)
    return tuple(found)


def parse_assertion(text: str) -> Assertion:
    """Parse one assertion from directive text, with or without the
    ``:-`` wrapper — ``assert_pattern(p/1, [int])`` and
    ``:- assert_pattern(p/1, [int]).`` both work."""
    term = parse_term(text)
    if isinstance(term, Struct) and term.name == ":-" and term.arity == 1:
        term = term.args[0]
    assertion = assertion_from_directive(term)
    if assertion is None:
        raise AssertionSyntaxError(
            "not an assertion directive: %s" % text.strip())
    return assertion
