"""Committed answers every output is checked against.

``oracle.json`` holds, for each Table-1 program, the analysis-table
fingerprint and the procedure and clause iteration counts of
``BENCH_pr4.json``'s ``current.programs``; an edited version must give
the same three values.  For CHK it holds the verdict counts, the
violated predicate, and the CLI exit code.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Optional

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "oracle.json")


class Oracle:
    def __init__(self, path: str = _PATH) -> None:
        with open(path) as handle:
            data = json.load(handle)
        self.programs = data["programs"]
        self.chk = data["CHK"]

    def check_table(self, name: str, payload: dict,
                    fingerprint: Optional[str],
                    fingerprint_of: Callable[[dict], str]) -> List[str]:
        """Problems with one analysis payload (``encode_result``
        form).  ``fingerprint`` is the one the program reported, if
        any; it is recomputed from the payload when absent."""
        want = self.programs[name]
        if fingerprint is None:
            fingerprint = fingerprint_of(payload)
        stats = payload.get("stats", {})
        problems = []
        if fingerprint != want["fingerprint"]:
            problems.append("%s: fingerprint %s" % (name, fingerprint))
        for field in ("procedure_iterations", "clause_iterations"):
            if stats.get(field) != want[field]:
                problems.append("%s: %s %r, expected %r"
                                % (name, field, stats.get(field),
                                   want[field]))
        return problems

    def check_verdicts(self, verdicts: List[dict]) -> List[str]:
        counts: dict = {}
        violated = []
        for verdict in verdicts:
            status = verdict.get("status")
            counts[status] = counts.get(status, 0) + 1
            if status == "violated":
                violated.append(list(verdict["assertion"]["pred"]))
        problems = []
        if counts != self.chk["counts"]:
            problems.append("CHK: verdict counts %r" % counts)
        if violated != self.chk["violated"]:
            problems.append("CHK: violated %r" % violated)
        return problems
