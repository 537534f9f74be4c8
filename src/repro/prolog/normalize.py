"""Normalization of clauses to kernel form.

The abstract engine (like GAIA, see paper §4) executes *normalized*
clauses: the head is ``p(X0, ..., Xn-1)`` with distinct variables, and
the body is a sequence of kernel goals:

* :class:`NUnify` — ``Xi = Xj``
* :class:`NBuild` — ``Xi = f(Xj1, ..., Xjk)`` (all arguments variables)
* :class:`NCall`  — ``q(Xi1, ..., Xik)`` (all arguments variables)

Variables are integers ``0 .. nvars-1``; the head arguments are exactly
``0 .. arity-1``.  Disjunctions and if-then-else in bodies are expanded
into alternative bodies *before* normalization (a sound
over-approximation of if-then-else that ignores the commit), so one
source clause may yield several normalized clauses.

Deeply disjunctive clauses whose cartesian expansion would exceed
:data:`_MAX_BODIES_PER_CLAUSE` bodies degrade *soundly* instead of
aborting the analysis: the offending disjunction is hidden behind a
fresh auxiliary predicate with one clause per disjunct (the standard
disjunction compilation), keeping the expansion linear.  The concrete
semantics is unchanged; abstractly the branch outputs now join at the
auxiliary call's return rather than at the clause exit, which is a
sound over-approximation that may be *less precise* than inline
expansion once widening or or-width caps apply downstream of the join
(never less sound, and strictly better than the previous hard
``ValueError``).  Each extraction is counted in
:attr:`NormProgram.disjunction_fallbacks`, which the engine surfaces
as ``AnalysisStats.disjunction_fallbacks``.

A clause parsed through the front-end memo of
:mod:`repro.prolog.program` keeps its normalized clauses in its memo
entry, so a warm re-analysis normalizes only the clauses an edit
changed.  A kept result is rebuilt around each new source clause, so
``NormClause.source`` (and the line blame slices report) is always
the clause of the program being normalized.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .._record import Record
from .program import FRONT_END_MEMO, Clause, PredId, Program
from .terms import Atom, Int, Struct, Term, Var, term_variables

__all__ = [
    "NUnify", "NBuild", "NCall", "NGoal",
    "NormClause", "NormProcedure", "NormProgram",
    "normalize_program", "normalize_clause",
]


# Kernel goals are slotted values like the terms they come from (see
# ``terms.py``): a plain ``__init__``, equality only within one class,
# and the hash of the tuple of their fields.

class NUnify:
    """Kernel goal ``X<a> = X<b>``."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not NUnify:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return "X%d = X%d" % (self.a, self.b)


class NBuild:
    """Kernel goal ``X<v> = name(X<args[0]>, ...)``.

    ``is_int`` marks integer literals (arity is then 0 and ``name`` is
    the decimal text of the value).
    """

    __slots__ = ("v", "name", "args", "is_int")

    def __init__(self, v: int, name: str, args: Tuple[int, ...],
                 is_int: bool = False) -> None:
        self.v = v
        self.name = name
        self.args = args
        self.is_int = is_int

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not NBuild:
            return NotImplemented
        return (self.v == other.v and self.name == other.name
                and self.args == other.args and self.is_int == other.is_int)

    def __hash__(self) -> int:
        return hash((self.v, self.name, self.args, self.is_int))

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        if not self.args:
            return "X%d = %s" % (self.v, self.name)
        inner = ",".join("X%d" % a for a in self.args)
        return "X%d = %s(%s)" % (self.v, self.name, inner)


class NCall:
    """Kernel goal ``pred(X<args[0]>, ...)``."""

    __slots__ = ("pred", "args")

    def __init__(self, pred: PredId, args: Tuple[int, ...]) -> None:
        self.pred = pred
        self.args = args

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not NCall:
            return NotImplemented
        return self.pred == other.pred and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.pred, self.args))

    def __repr__(self) -> str:
        if not self.args:
            return self.pred[0]
        inner = ",".join("X%d" % a for a in self.args)
        return "%s(%s)" % (self.pred[0], inner)


NGoal = Union[NUnify, NBuild, NCall]


class NormClause(Record):
    """One normalized clause: head ``pred(X0..Xn-1)`` over ``nvars``
    variables and a body of kernel goals."""

    __slots__ = ("pred", "nvars", "body", "source", "var_names")

    def __init__(self, pred: PredId, nvars: int, body: List[NGoal],
                 source: Optional[Clause] = None,
                 var_names: Optional[List[str]] = None) -> None:
        self.pred = pred
        self.nvars = nvars
        self.body = body
        self.source = source
        self.var_names = [] if var_names is None else var_names

    def __repr__(self) -> str:
        head_args = ",".join("X%d" % i for i in range(self.pred[1]))
        head = self.pred[0] + ("(%s)" % head_args if head_args else "")
        if not self.body:
            return head + "."
        return "%s :- %s." % (head, ", ".join(map(repr, self.body)))


class NormProcedure(Record):
    """The normalized clauses of one predicate, in source order."""

    __slots__ = ("pred", "clauses")

    def __init__(self, pred: PredId,
                 clauses: Optional[List[NormClause]] = None) -> None:
        self.pred = pred
        self.clauses = [] if clauses is None else clauses


class NormProgram(Record):
    """A normalized program: its procedures, in source order."""

    __slots__ = ("procedures", "order", "disjunction_fallbacks")

    def __init__(self,
                 procedures: Optional[Dict[PredId, NormProcedure]] = None,
                 order: Optional[List[PredId]] = None,
                 disjunction_fallbacks: int = 0) -> None:
        self.procedures = {} if procedures is None else procedures
        self.order = [] if order is None else order
        #: oversized disjunctions compiled to auxiliary predicates
        #: instead of cartesian expansion (sound; branch outputs join
        #: earlier than under inline expansion, so precision may drop
        #: — see module doc; nonzero values are worth a warning in
        #: reports).
        self.disjunction_fallbacks = disjunction_fallbacks

    def procedure(self, pred: PredId) -> Optional[NormProcedure]:
        return self.procedures.get(pred)

    def defined(self, pred: PredId) -> bool:
        return pred in self.procedures

    @property
    def num_clauses(self) -> int:
        return sum(len(p.clauses) for p in self.procedures.values())

    def num_program_points(self) -> int:
        """Program points: one before each kernel goal plus one at each
        clause end (our concrete rendering of Table 1's measure)."""
        return sum(len(c.body) + 1
                   for p in self.procedures.values() for c in p.clauses)


# -- disjunction expansion ------------------------------------------------

_MAX_BODIES_PER_CLAUSE = 64


class _AuxSink:
    """Collects auxiliary predicates extracted from oversized
    disjunctions.  ``seed`` keeps the generated names deterministic and
    unique within one program (predicate name, arity, clause index)."""

    def __init__(self, seed: str) -> None:
        self.seed = seed
        self.count = 0
        #: (PredId, head Term, [body goal lists]) per extraction.
        self.procedures: List[Tuple[PredId, Term, List[List[Term]]]] = []

    def extract(self, goal: Term,
                alternatives: List[List[Term]]) -> Term:
        """Register one auxiliary predicate whose clauses are
        ``alternatives`` and return the goal that calls it."""
        variables = term_variables(goal)
        name = "$or_%s_%d" % (self.seed, self.count)
        self.count += 1
        pred = (name, len(variables))
        if variables:
            head: Term = Struct(name, tuple(variables))
        else:
            head = Atom(name)
        self.procedures.append((pred, head, alternatives))
        return head


def _expand_goal(goal: Term, sink: _AuxSink) -> List[List[Term]]:
    """Alternative flattened goal sequences for one source goal."""
    if isinstance(goal, Struct) and goal.name == "," and goal.arity == 2:
        return _expand_body([goal.args[0], goal.args[1]], sink)
    if isinstance(goal, Struct) and goal.name == ";" and goal.arity == 2:
        left, right = goal.args
        branches: List[List[Term]] = []
        if isinstance(left, Struct) and left.name == "->" and left.arity == 2:
            branches.extend(_expand_body([left.args[0], left.args[1]], sink))
        else:
            branches.extend(_expand_body([left], sink))
        branches.extend(_expand_body([right], sink))
        return branches
    if isinstance(goal, Struct) and goal.name == "->" and goal.arity == 2:
        return _expand_body([goal.args[0], goal.args[1]], sink)
    if isinstance(goal, Atom) and goal.name == "true":
        return [[]]
    return [[goal]]


def _expand_body(goals: List[Term], sink: _AuxSink) -> List[List[Term]]:
    """Cartesian expansion of disjunctive bodies.

    The result never exceeds :data:`_MAX_BODIES_PER_CLAUSE` bodies: a
    goal whose alternatives would blow the product is replaced by a
    call to a fresh auxiliary predicate with one clause per
    alternative — the standard compilation of disjunction, sound
    though potentially less precise than inline expansion (see the
    module docstring)."""
    bodies: List[List[Term]] = [[]]
    for goal in goals:
        alternatives = _expand_goal(goal, sink)
        if (len(alternatives) > 1
                and len(bodies) * len(alternatives)
                > _MAX_BODIES_PER_CLAUSE):
            alternatives = [[sink.extract(goal, alternatives)]]
        bodies = [prefix + alt for prefix in bodies for alt in alternatives]
    return bodies


# -- clause normalization --------------------------------------------------

class _ClauseBuilder:
    def __init__(self, arity: int) -> None:
        self.nvars = arity
        self.varmap: Dict[Var, int] = {}
        self.names: List[str] = ["A%d" % i for i in range(arity)]
        self.goals: List[NGoal] = []

    def fresh(self, name: str = "T") -> int:
        index = self.nvars
        self.nvars += 1
        self.names.append("%s%d" % (name, index))
        return index

    def var_index(self, var: Var) -> int:
        index = self.varmap.get(var)
        if index is None:
            index = self.fresh(var.name)
            self.varmap[var] = index
        return index

    def unify_with(self, index: int, term: Term) -> None:
        """Emit kernel goals for ``X<index> = term``."""
        if isinstance(term, Var):
            other = self.varmap.get(term)
            if other is None:
                self.varmap[term] = index
                return
            if other != index:
                self.goals.append(NUnify(index, other))
            return
        if isinstance(term, Atom):
            self.goals.append(NBuild(index, term.name, ()))
            return
        if isinstance(term, Int):
            self.goals.append(NBuild(index, str(term.value), (), True))
            return
        assert isinstance(term, Struct)
        arg_indices: List[int] = []
        pending: List[Tuple[int, Term]] = []
        for arg in term.args:
            if isinstance(arg, Var):
                arg_indices.append(self.var_index(arg))
            else:
                child = self.fresh()
                arg_indices.append(child)
                pending.append((child, arg))
        self.goals.append(NBuild(index, term.name, tuple(arg_indices)))
        for child, sub in pending:
            self.unify_with(child, sub)

    def term_to_var(self, term: Term) -> int:
        """Var index for a goal argument, flattening if needed."""
        if isinstance(term, Var):
            return self.var_index(term)
        index = self.fresh()
        self.unify_with(index, term)
        return index


def _normalize_one(pred: PredId, head: Term, body: List[Term],
                   source: Clause) -> NormClause:
    arity = pred[1]
    builder = _ClauseBuilder(arity)
    head_args: List[Term] = list(head.args) if isinstance(head, Struct) else []
    # Bind head variables: a first-occurrence variable in argument i *is*
    # variable i; anything else unifies.
    for i, arg in enumerate(head_args):
        if isinstance(arg, Var) and arg not in builder.varmap:
            builder.varmap[arg] = i
            builder.names[i] = arg.name
        else:
            builder.unify_with(i, arg)
    for goal in body:
        _normalize_goal(builder, goal)
    return NormClause(pred, builder.nvars, builder.goals, source,
                      builder.names)


def _normalize_goal(builder: _ClauseBuilder, goal: Term) -> None:
    if isinstance(goal, Var):
        builder.goals.append(NCall(("call", 1), (builder.var_index(goal),)))
        return
    if isinstance(goal, Atom):
        if goal.name == "true":
            return
        builder.goals.append(NCall((goal.name, 0), ()))
        return
    if isinstance(goal, Int):
        raise ValueError("integer cannot be a goal: %r" % (goal,))
    assert isinstance(goal, Struct)
    if goal.name == "=" and goal.arity == 2:
        left, right = goal.args
        if isinstance(left, Var):
            builder.unify_with(builder.var_index(left), right)
            return
        if isinstance(right, Var):
            builder.unify_with(builder.var_index(right), left)
            return
        index = builder.fresh()
        builder.unify_with(index, left)
        builder.unify_with(index, right)
        return
    if goal.name == "\\+" and goal.arity == 1 or \
            goal.name == "not" and goal.arity == 1:
        # Negation as failure binds nothing on success: abstractly a test.
        builder.goals.append(NCall(("\\+", 1),
                                   (builder.term_to_var(goal.args[0]),)))
        return
    args = tuple(builder.term_to_var(a) for a in goal.args)
    builder.goals.append(NCall((goal.name, goal.arity), args))


def _normalize_clause_ex(clause: Clause, aux_seed: str
                         ) -> Tuple[List[NormClause],
                                    List[Tuple[PredId, List[NormClause]]],
                                    int]:
    """Normalize one source clause.  Returns the clauses for the
    clause's own predicate, the normalized procedures of any auxiliary
    predicates extracted from oversized disjunctions, and the number of
    such extractions."""
    pred = clause.pred
    sink = _AuxSink(aux_seed)
    results = []
    for body in _expand_body(list(clause.body), sink):
        results.append(_normalize_one(pred, clause.head, body, clause))
    aux: List[Tuple[PredId, List[NormClause]]] = []
    # Extractions may themselves register further extractions while
    # their bodies are expanded; the list grows monotonically, and every
    # alternative stored in it is already fully expanded.
    for aux_pred, head, alternatives in sink.procedures:
        aux.append((aux_pred,
                    [_normalize_one(aux_pred, head, body, clause)
                     for body in alternatives]))
    return results, aux, sink.count


def normalize_clause(clause: Clause,
                     aux_seed: Optional[str] = None) -> List[NormClause]:
    """Normalize one source clause (possibly several results, one per
    disjunctive branch).  Clauses of auxiliary predicates extracted
    from oversized disjunctions are appended after the clause's own
    (recognizable by their ``pred``)."""
    if aux_seed is None:
        aux_seed = "%s_%d" % clause.pred
    results, aux, _ = _normalize_clause_ex(clause, aux_seed)
    for _, aux_clauses in aux:
        results.extend(aux_clauses)
    return results


def _normalized(clause: Clause, aux_seed: str
                ) -> Tuple[List[NormClause],
                           List[Tuple[PredId, List[NormClause]]], int]:
    """:func:`_normalize_clause_ex`, kept in the front-end memo entry
    of a parsed clause.  A clause that extracts no auxiliary predicate
    normalizes alike under every seed; one that does is kept for the
    seed it was normalized under.  A kept result is rebuilt around
    ``clause``, so each :class:`NormClause` has its own ``source``."""
    parsed = FRONT_END_MEMO.of_clause(clause)
    if parsed is None:
        return _normalize_clause_ex(clause, aux_seed)
    kept = parsed.norm
    if kept is None or (kept[2] and kept[3] != aux_seed):
        results, aux, fallbacks = _normalize_clause_ex(clause, aux_seed)
        parsed.norm = (results, aux, fallbacks, aux_seed)
        return results, aux, fallbacks
    results, aux, fallbacks, _ = kept

    def rebuilt(clauses: List[NormClause]) -> List[NormClause]:
        return [NormClause(c.pred, c.nvars, c.body, clause, c.var_names)
                for c in clauses]

    return (rebuilt(results),
            [(pred, rebuilt(clauses)) for pred, clauses in aux], fallbacks)


def normalize_program(program: Program) -> NormProgram:
    """Normalize every clause of ``program``; a parsed clause's
    normalization is kept in its front-end memo entry (see
    :mod:`repro.prolog.program`)."""
    norm = NormProgram()
    for pred in program.order:
        procedure = NormProcedure(pred)
        for index, clause in enumerate(program.procedures[pred].clauses):
            clauses, aux, fallbacks = _normalized(
                clause, "%s_%d_%d" % (pred[0], pred[1], index))
            procedure.clauses.extend(clauses)
            norm.disjunction_fallbacks += fallbacks
            for aux_pred, aux_clauses in aux:
                norm.procedures[aux_pred] = NormProcedure(aux_pred,
                                                          aux_clauses)
                norm.order.append(aux_pred)
        norm.procedures[pred] = procedure
        norm.order.append(pred)
    return norm
