"""A small SLD-resolution interpreter.

Used as the *concrete semantics oracle*: the paper's soundness claim is
that every concrete success substitution is described by the inferred
output pattern, and the test suite checks exactly that by running
queries here and testing membership of the answers in the inferred type
graphs.

Design choices (all documented deviations are over-approximated by the
analyser as well, so the soundness comparison stays meaningful):

* left-to-right selection, clause order, depth-first with bounds;
* occur-check **on** (the abstract domain assumes finite trees);
* cut is ignored (the analyser treats it as a no-op, so the cut-free
  success set is the right oracle);
* a pragmatic set of builtins (unification, arithmetic, comparison,
  type tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from .program import PredId, Program
from .terms import Atom, Int, Struct, Term, Var

__all__ = ["Solver", "SolveLimits", "solve", "Bindings"]

Bindings = Dict[Var, Term]


class DepthLimit(Exception):
    """Internal: raised when the step budget is exhausted."""


@dataclass
class SolveLimits:
    max_depth: int = 400
    max_solutions: int = 200
    max_steps: int = 200000


def walk(term: Term, bindings: Bindings) -> Term:
    """Follow variable bindings to the representative term."""
    while isinstance(term, Var):
        bound = bindings.get(term)
        if bound is None:
            return term
        term = bound
    return term


def resolve(term: Term, bindings: Bindings) -> Term:
    """Fully dereference ``term`` (deep walk)."""
    term = walk(term, bindings)
    if isinstance(term, Struct):
        return Struct(term.name, tuple(resolve(a, bindings)
                                       for a in term.args))
    return term


def occurs(var: Var, term: Term, bindings: Bindings) -> bool:
    term = walk(term, bindings)
    if term == var:
        return True
    if isinstance(term, Struct):
        return any(occurs(var, a, bindings) for a in term.args)
    return False


def unify(a: Term, b: Term, bindings: Bindings,
          trail: List[Var]) -> bool:
    """Destructive unification with trail for backtracking."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = walk(x, bindings)
        y = walk(y, bindings)
        if x == y:
            continue
        if isinstance(x, Var):
            if occurs(x, y, bindings):
                return False
            bindings[x] = y
            trail.append(x)
            continue
        if isinstance(y, Var):
            if occurs(y, x, bindings):
                return False
            bindings[y] = x
            trail.append(y)
            continue
        if isinstance(x, Struct) and isinstance(y, Struct) \
                and x.name == y.name and x.arity == y.arity:
            stack.extend(zip(x.args, y.args))
            continue
        return False
    return True


def undo(trail: List[Var], mark: int, bindings: Bindings) -> None:
    while len(trail) > mark:
        del bindings[trail.pop()]


def rename(term: Term, stamp: int, cache: Dict[Var, Var]) -> Term:
    if isinstance(term, Var):
        renamed = cache.get(term)
        if renamed is None:
            renamed = Var(term.name, stamp)
            cache[term] = renamed
        return renamed
    if isinstance(term, Struct):
        return Struct(term.name, tuple(rename(a, stamp, cache)
                                       for a in term.args))
    return term


_ARITH2 = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "//": lambda a, b: a // b,
           "/": lambda a, b: a // b, "mod": lambda a, b: a % b,
           "min": min, "max": max}


def eval_arith(term: Term, bindings: Bindings) -> int:
    """Evaluate an arithmetic expression to an integer.  A term that
    does not evaluate — unbound, non-arithmetic, or a division by
    zero — raises ``ValueError``, so ``is/2`` and comparisons fail."""
    term = walk(term, bindings)
    if isinstance(term, Int):
        return term.value
    if isinstance(term, Struct):
        args = [eval_arith(a, bindings) for a in term.args]
        if term.arity == 2 and term.name in _ARITH2:
            try:
                return _ARITH2[term.name](args[0], args[1])
            except ZeroDivisionError:
                raise ValueError("division by zero: %r" % (term,)) from None
        if term.arity == 1 and term.name == "-":
            return -args[0]
        if term.arity == 1 and term.name == "+":
            return args[0]
        if term.arity == 1 and term.name == "abs":
            return abs(args[0])
    raise ValueError("cannot evaluate arithmetic term: %r" % (term,))


_COMPARISONS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=<": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "=:=": lambda a, b: a == b,
    "=\\=": lambda a, b: a != b,
}


class Solver:
    """Depth-first SLD solver over a :class:`Program`."""

    def __init__(self, program: Program,
                 limits: Optional[SolveLimits] = None) -> None:
        self.program = program
        self.limits = limits if limits is not None else SolveLimits()
        self._stamp = 0
        self._steps = 0

    def solve(self, goal: Term) -> Iterator[Bindings]:
        """Yield answer bindings (snapshots) for ``goal``."""
        bindings: Bindings = {}
        trail: List[Var] = []
        count = 0
        self._steps = 0
        try:
            for _ in self._solve_goals([goal], bindings, trail, 0):
                yield dict(bindings)
                count += 1
                if count >= self.limits.max_solutions:
                    return
        except DepthLimit:
            return

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.limits.max_steps:
            raise DepthLimit()

    def _solve_goals(self, goals: List[Term], bindings: Bindings,
                     trail: List[Var], depth: int) -> Iterator[None]:
        if not goals:
            yield None
            return
        if depth > self.limits.max_depth:
            raise DepthLimit()
        self._tick()
        goal, rest = goals[0], goals[1:]
        goal = walk(goal, bindings)
        for _ in self._solve_one(goal, bindings, trail, depth):
            yield from self._solve_goals(rest, bindings, trail, depth)

    def _solve_one(self, goal: Term, bindings: Bindings,
                   trail: List[Var], depth: int) -> Iterator[None]:
        if isinstance(goal, Var):
            raise ValueError("unbound goal")
        if isinstance(goal, Struct) and goal.name == "," and goal.arity == 2:
            yield from self._solve_goals([goal.args[0], goal.args[1]],
                                         bindings, trail, depth)
            return
        if isinstance(goal, Struct) and goal.name == ";" and goal.arity == 2:
            left, right = goal.args
            lw = walk(left, bindings)
            if isinstance(lw, Struct) and lw.name == "->" and lw.arity == 2:
                yield from self._solve_goals([lw.args[0], lw.args[1]],
                                             bindings, trail, depth)
            else:
                yield from self._solve_goals([left], bindings, trail, depth)
            yield from self._solve_goals([right], bindings, trail, depth)
            return
        if isinstance(goal, Struct) and goal.name == "->" and goal.arity == 2:
            yield from self._solve_goals([goal.args[0], goal.args[1]],
                                         bindings, trail, depth)
            return

        handled = self._builtin(goal, bindings, trail)
        if handled is not None:
            yield from handled
            return

        pred = self._pred_of(goal)
        procedure = self.program.procedure(pred)
        if procedure is None:
            return  # unknown predicate: fail silently
        goal_args = goal.args if isinstance(goal, Struct) else ()
        for clause in procedure.clauses:
            self._tick()
            self._stamp += 1
            cache: Dict[Var, Var] = {}
            head = rename(clause.head, self._stamp, cache)
            body = [rename(g, self._stamp, cache) for g in clause.body]
            head_args = head.args if isinstance(head, Struct) else ()
            mark = len(trail)
            if unify(Struct("$h", tuple(goal_args)) if goal_args else Atom("$h"),
                     Struct("$h", tuple(head_args)) if head_args else Atom("$h"),
                     bindings, trail):
                yield from self._solve_goals(body, bindings, trail, depth + 1)
            undo(trail, mark, bindings)

    @staticmethod
    def _pred_of(goal: Term) -> PredId:
        if isinstance(goal, Atom):
            return (goal.name, 0)
        assert isinstance(goal, Struct)
        return (goal.name, goal.arity)

    def _builtin(self, goal: Term, bindings: Bindings,
                 trail: List[Var]) -> Optional[Iterator[None]]:
        """Return an answer iterator if ``goal`` is a builtin, else None."""
        pred = self._pred_of(goal)
        name, arity = pred
        args = goal.args if isinstance(goal, Struct) else ()

        def unit() -> Iterator[None]:
            yield None

        def empty() -> Iterator[None]:
            return
            yield  # pragma: no cover

        if pred in (("true", 0), ("!", 0), ("nl", 0)):
            return unit()
        if pred in (("fail", 0), ("false", 0)):
            return empty()
        if pred in (("write", 1), ("print", 1), ("write_canonical", 1)):
            return unit()
        if pred == ("=", 2):
            def do_unify() -> Iterator[None]:
                mark = len(trail)
                if unify(args[0], args[1], bindings, trail):
                    yield None
                undo(trail, mark, bindings)
            return do_unify()
        if pred == ("\\=", 2):
            def do_nunify() -> Iterator[None]:
                mark = len(trail)
                ok = unify(args[0], args[1], bindings, trail)
                undo(trail, mark, bindings)
                if not ok:
                    yield None
            return do_nunify()
        if pred == ("==", 2):
            if resolve(args[0], bindings) == resolve(args[1], bindings):
                return unit()
            return empty()
        if pred == ("\\==", 2):
            if resolve(args[0], bindings) != resolve(args[1], bindings):
                return unit()
            return empty()
        if name in _COMPARISONS and arity == 2:
            try:
                lhs = eval_arith(args[0], bindings)
                rhs = eval_arith(args[1], bindings)
            except ValueError:
                return empty()
            return unit() if _COMPARISONS[name](lhs, rhs) else empty()
        if pred == ("is", 2):
            def do_is() -> Iterator[None]:
                try:
                    value = eval_arith(args[1], bindings)
                except ValueError:
                    return
                mark = len(trail)
                if unify(args[0], Int(value), bindings, trail):
                    yield None
                undo(trail, mark, bindings)
            return do_is()
        if pred in (("\\+", 1), ("not", 1)):
            def do_naf() -> Iterator[None]:
                mark = len(trail)
                found = False
                for _ in self._solve_goals([args[0]], bindings, trail, 0):
                    found = True
                    break
                undo(trail, mark, bindings)
                if not found:
                    yield None
            return do_naf()
        if pred == ("call", 1):
            return self._solve_one(walk(args[0], bindings), bindings,
                                   trail, 0)
        if pred == ("var", 1):
            return unit() if isinstance(walk(args[0], bindings), Var) \
                else empty()
        if pred == ("nonvar", 1):
            return empty() if isinstance(walk(args[0], bindings), Var) \
                else unit()
        if pred == ("atom", 1):
            return unit() if isinstance(walk(args[0], bindings), Atom) \
                else empty()
        if pred == ("integer", 1):
            return unit() if isinstance(walk(args[0], bindings), Int) \
                else empty()
        if pred == ("atomic", 1):
            return unit() if isinstance(walk(args[0], bindings),
                                        (Atom, Int)) else empty()
        if pred == ("length", 2):
            def do_length() -> Iterator[None]:
                lst = resolve(args[0], bindings)
                n = 0
                while isinstance(lst, Struct) and lst.name == "." \
                        and lst.arity == 2:
                    n += 1
                    lst = lst.args[1]
                if lst != Atom("[]"):
                    return
                mark = len(trail)
                if unify(args[1], Int(n), bindings, trail):
                    yield None
                undo(trail, mark, bindings)
            return do_length()
        return None


def solve(program: Program, goal: Term,
          limits: Optional[SolveLimits] = None) -> List[Bindings]:
    """All answers for ``goal`` against ``program`` (within limits)."""
    return list(Solver(program, limits).solve(goal))
