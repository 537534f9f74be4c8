"""Evaluating assertions against a computed analysis table.

Each assertion compiles to a frozen pattern (see
:mod:`repro.assertions.compiler`) and is compared, via
:func:`~repro.domains.pattern.subst_le`, against every table entry of
its predicate — β_out for ``assert_pattern``, β_in for
``assert_calls``.  Verdicts:

* ``verified`` — every non-bottom β of the predicate lies below the
  declared pattern;
* ``violated`` — at least one entry escapes it (the offending entry
  ids are recorded; :mod:`repro.assertions.slicer` turns them into a
  blame slice);
* ``unreachable`` — the predicate has no entry with a non-bottom β:
  the analysis never saw it called (``calls``) or never proved a
  success (``pattern``), so the assertion is vacuous — worth a warning,
  not a failure.

Everything here is a deterministic function of the interned analysis
table and the assertion list, so verdict objects — and their canonical
JSON — are bit-identical across kernel tiers and cache-warm/cold runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .._record import Record
from ..domains.leaf import LeafDomain
from ..domains.pattern import PAT_BOTTOM, display_subst, subst_le
from .compiler import compile_assertion
from .frontend import Assertion

__all__ = ["VERIFIED", "VIOLATED", "UNREACHABLE", "Verdict",
           "CheckReport", "check_result"]

VERIFIED = "verified"
VIOLATED = "violated"
UNREACHABLE = "unreachable"


class Verdict(Record):
    """The outcome of one assertion against one analysis table."""

    __slots__ = ("assertion", "status", "checked_entries",
                 "offending_entries", "details")

    def __init__(self, assertion: Assertion, status: str,
                 checked_entries: Optional[List[int]] = None,
                 offending_entries: Optional[List[int]] = None,
                 details: Optional[List[str]] = None) -> None:
        self.assertion = assertion
        self.status = status
        #: table entry ids with a non-bottom β that were compared
        self.checked_entries = ([] if checked_entries is None
                                else checked_entries)
        #: the subset whose β escapes the declared pattern
        self.offending_entries = ([] if offending_entries is None
                                  else offending_entries)
        #: human-readable β renderings for the offending entries
        self.details = [] if details is None else details

    def to_obj(self) -> dict:
        return {"assertion": self.assertion.to_obj(),
                "status": self.status,
                "checked_entries": list(self.checked_entries),
                "offending_entries": list(self.offending_entries),
                "details": list(self.details)}

    @classmethod
    def from_obj(cls, data: dict) -> "Verdict":
        return cls(assertion=Assertion.from_obj(data["assertion"]),
                   status=data["status"],
                   checked_entries=[int(i) for i in
                                    data.get("checked_entries", ())],
                   offending_entries=[int(i) for i in
                                      data.get("offending_entries", ())],
                   details=list(data.get("details", ())))


class CheckReport(Record):
    """All verdicts of one check run."""

    __slots__ = ("verdicts",)

    def __init__(self, verdicts: Optional[List[Verdict]] = None) -> None:
        self.verdicts = [] if verdicts is None else verdicts

    @property
    def ok(self) -> bool:
        return all(v.status != VIOLATED for v in self.verdicts)

    def counts(self) -> Dict[str, int]:
        counts = {VERIFIED: 0, VIOLATED: 0, UNREACHABLE: 0}
        for verdict in self.verdicts:
            counts[verdict.status] = counts.get(verdict.status, 0) + 1
        return counts

    def violations(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.status == VIOLATED]

    def to_obj(self) -> dict:
        return {"verdicts": [v.to_obj() for v in self.verdicts]}

    @classmethod
    def from_obj(cls, data: dict) -> "CheckReport":
        return cls([Verdict.from_obj(v)
                    for v in data.get("verdicts", ())])


def _entry_beta(entry, kind: str):
    return entry.beta_out if kind == "pattern" else entry.beta_in


def check_result(result, domain: LeafDomain,
                 assertions: Sequence[Assertion]) -> CheckReport:
    """Evaluate ``assertions`` against an
    :class:`~repro.fixpoint.engine.AnalysisResult`."""
    report = CheckReport()
    for assertion in assertions:
        spec = compile_assertion(assertion, domain)
        names = ["arg%d" % (i + 1) for i in range(assertion.pred[1])]
        checked: List[int] = []
        offending: List[int] = []
        details: List[str] = []
        for entry in result.entries_for(assertion.pred):
            beta = _entry_beta(entry, assertion.kind)
            if beta is PAT_BOTTOM:
                continue
            checked.append(entry.id)
            if spec is PAT_BOTTOM or not subst_le(beta, spec, domain):
                offending.append(entry.id)
                rendering = display_subst(beta, domain, names)
                details.append("entry %d: %s" % (
                    entry.id, "; ".join(rendering.splitlines())))
        status = (UNREACHABLE if not checked
                  else VIOLATED if offending else VERIFIED)
        report.verdicts.append(Verdict(assertion, status, checked,
                                       offending, details))
    return report
