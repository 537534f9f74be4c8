"""Blame slicing: from a violated assertion to the code that caused it.

The differential engine records, for every table entry, exactly which
(caller entry, clause, call site) triples consumed its output
(:attr:`repro.fixpoint.engine.Engine._callsite_deps`).  Run under
``AnalysisConfig(keep_deps=True)`` that graph survives the fixpoint on
the :class:`~repro.fixpoint.engine.AnalysisResult`, and a violation
slices it two ways:

* **producing clauses** — the violated entry's own clauses that
  produced a non-bottom output are the ones whose join escaped the
  declared pattern (an ``assert_pattern`` violation is manufactured
  here);
* **contributing call sites** — walking the dependency edges backwards
  from the violated entry names every (caller clause, body position)
  through which the offending call pattern flowed, up to the root
  query (an ``assert_calls`` violation blames this chain; for
  ``assert_pattern`` it shows how the bad result propagates out).

Steps are anchored to source: each carries the originating clause's
text and 1-based line (:attr:`repro.prolog.program.Clause.line`), plus
the normalized goal at the call site.  The walk is deterministic
(sorted edges, BFS with a visited set), so slices — like verdicts —
are fingerprint-stable.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from .._record import Record
from ..prolog.normalize import NormProgram
from ..prolog.program import PredId
from .checker import CheckReport, VIOLATED, Verdict

__all__ = ["SliceStep", "BlameSlice", "blame_slices"]


class SliceStep(Record):
    """One element of a blame slice.

    ``role`` is ``"clause"`` (a producing clause of the violated
    entry) or ``"call-site"`` (a caller's call through which the
    pattern flowed).  ``clause_index`` indexes the *normalized*
    procedure; ``body_pos``/``goal`` locate the call inside it
    (clause steps have neither).  ``source``/``line`` anchor the step
    to the original program text."""

    __slots__ = ("role", "pred", "entry_id", "clause_index", "body_pos",
                 "goal", "source", "line", "depth")

    def __init__(self, role: str, pred: PredId, entry_id: int,
                 clause_index: int, body_pos: Optional[int] = None,
                 goal: Optional[str] = None, source: Optional[str] = None,
                 line: int = 0, depth: int = 0) -> None:
        self.role = role
        self.pred = pred
        self.entry_id = entry_id
        self.clause_index = clause_index
        self.body_pos = body_pos
        self.goal = goal
        self.source = source
        self.line = line
        #: hops from the violated entry (0 = its own clauses)
        self.depth = depth

    def to_obj(self) -> dict:
        return {"role": self.role, "pred": list(self.pred),
                "entry": self.entry_id, "clause": self.clause_index,
                "body_pos": self.body_pos, "goal": self.goal,
                "source": self.source, "line": self.line,
                "depth": self.depth}

    @classmethod
    def from_obj(cls, data: dict) -> "SliceStep":
        return cls(role=data["role"],
                   pred=(data["pred"][0], int(data["pred"][1])),
                   entry_id=int(data["entry"]),
                   clause_index=int(data["clause"]),
                   body_pos=data.get("body_pos"),
                   goal=data.get("goal"),
                   source=data.get("source"),
                   line=int(data.get("line") or 0),
                   depth=int(data.get("depth") or 0))


class BlameSlice(Record):
    """The minimal clause/call-site slice for one offending entry of
    one violated assertion."""

    __slots__ = ("assertion_key", "pred", "entry_id", "steps")

    def __init__(self, assertion_key: str, pred: PredId, entry_id: int,
                 steps: Optional[List[SliceStep]] = None) -> None:
        self.assertion_key = assertion_key
        self.pred = pred
        self.entry_id = entry_id
        self.steps = [] if steps is None else steps

    def to_obj(self) -> dict:
        return {"assertion": self.assertion_key,
                "pred": list(self.pred), "entry": self.entry_id,
                "steps": [s.to_obj() for s in self.steps]}

    @classmethod
    def from_obj(cls, data: dict) -> "BlameSlice":
        return cls(assertion_key=data["assertion"],
                   pred=(data["pred"][0], int(data["pred"][1])),
                   entry_id=int(data["entry"]),
                   steps=[SliceStep.from_obj(s)
                          for s in data.get("steps", ())])


def _source_anchor(norm: Optional[NormProgram], pred: PredId,
                   clause_index: int):
    """(source text, line, normalized clause) for one clause of the
    normalized program; Nones when out of range or norm is absent."""
    if norm is None:
        return None, 0, None
    procedure = norm.procedure(pred)
    if procedure is None or clause_index >= len(procedure.clauses):
        return None, 0, None
    clause = procedure.clauses[clause_index]
    source = clause.source
    if source is not None:
        return repr(source), source.line or 0, clause
    return repr(clause), 0, clause


def _slice_for_entry(result, norm: Optional[NormProgram],
                     verdict: Verdict, entry_id: int) -> BlameSlice:
    entries = {entry.id: entry for entry in result.entries}
    pred = verdict.assertion.pred
    blame = BlameSlice(verdict.assertion.key, pred, entry_id)

    # Producing clauses of the violated entry itself.
    reached = (result.clause_reached or {}).get(entry_id, ())
    for clause_index, produced in enumerate(reached):
        if not produced:
            continue
        source, line, _ = _source_anchor(norm, pred, clause_index)
        blame.steps.append(SliceStep("clause", pred, entry_id,
                                     clause_index, source=source,
                                     line=line))

    # Backward walk over the call-site dependency edges.
    deps = result.callsite_deps or {}
    seen = {entry_id}
    frontier = deque([(entry_id, 0)])
    while frontier:
        callee_id, depth = frontier.popleft()
        for caller_id, clause_index, callsite in sorted(
                deps.get(callee_id, ())):
            caller = entries.get(caller_id)
            if caller is None:
                continue
            source, line, clause = _source_anchor(norm, caller.pred,
                                                  clause_index)
            positions = (result.call_positions or {}).get(
                (caller.pred, clause_index), ())
            body_pos = (positions[callsite]
                        if callsite < len(positions) else None)
            goal = None
            if clause is not None and body_pos is not None \
                    and body_pos < len(clause.body):
                goal = repr(clause.body[body_pos])
            blame.steps.append(SliceStep(
                "call-site", caller.pred, caller_id, clause_index,
                body_pos=body_pos, goal=goal, source=source, line=line,
                depth=depth + 1))
            if caller_id not in seen:
                seen.add(caller_id)
                frontier.append((caller_id, depth + 1))
    return blame


def blame_slices(result, norm: Optional[NormProgram],
                 report: CheckReport) -> List[BlameSlice]:
    """One :class:`BlameSlice` per offending entry of every violated
    verdict in ``report``.

    Requires the analysis to have retained its dependency graph —
    raises ``ValueError`` otherwise (run with
    ``AnalysisConfig(keep_deps=True)``)."""
    if result.callsite_deps is None:
        raise ValueError(
            "analysis did not retain dependency edges; re-run with "
            "AnalysisConfig(keep_deps=True) to enable blame slicing")
    slices: List[BlameSlice] = []
    for verdict in report.verdicts:
        if verdict.status != VIOLATED:
            continue
        for entry_id in verdict.offending_entries:
            slices.append(_slice_for_entry(result, norm, verdict,
                                           entry_id))
    return slices
