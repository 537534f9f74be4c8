"""The benchmark suite of §9.

Fifteen analysis workloads: the ten programs of Table 1 (KA QU PR PE
CS DS PG RE BR PL), the two arithmetic programs of Figures 2–3 (AR
AR1), and the three L-variants (LDS LPE LPL) whose input patterns
assign lists to some arguments, as in Tables 4–5.

Each :class:`BenchProgram` carries the Prolog source, the top-level
query, and the per-argument input types (``"any"`` unless the variant
says otherwise).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .._record import FrozenRecord
from . import ar, br, chk, cs, ds, ka, pe, pg, pl, pr, qu, re as re_mod

__all__ = ["BenchProgram", "BENCHMARKS", "benchmark", "benchmark_names"]


class BenchProgram(FrozenRecord):
    """One analysis workload."""

    __slots__ = ("name", "source", "query", "input_types", "description")

    def __init__(self, name: str, source: str, query: Tuple[str, int],
                 input_types: Optional[Tuple[str, ...]] = None,
                 description: str = "") -> None:
        self.name = name
        self.source = source
        self.query = query
        self.input_types = input_types
        self.description = description

    @property
    def pred_name(self) -> str:
        return self.query[0]


def _mk(name, module, query=None, input_types=None, description=""):
    return BenchProgram(
        name=name,
        source=module.SOURCE,
        query=query if query is not None else module.QUERY,
        input_types=tuple(input_types) if input_types else None,
        description=description,
    )


BENCHMARKS: Dict[str, BenchProgram] = {}

for _bp in [
    _mk("KA", ka, description="kalah alpha-beta game player"),
    _mk("QU", qu, description="n-queens"),
    _mk("PR", pr, description="press symbolic equation solver"),
    _mk("PE", pe, description="SB-Prolog peephole optimizer"),
    _mk("CS", cs, description="cutting stock configurations"),
    _mk("DS", ds, description="disjunctive scheduling, generate and test"),
    _mk("PG", pg, description="Older's arithmetic problem"),
    _mk("RE", re_mod, description="Prolog tokenizer and reader"),
    _mk("BR", br, description="browse (Gabriel suite)"),
    _mk("PL", pl, description="blocks-world planner"),
    BenchProgram("AR", ar.SOURCE, ar.QUERY,
                 description="arithmetic expressions (Figure 2)"),
    BenchProgram("AR1", ar.AR1_SOURCE, ar.AR1_QUERY,
                 description="arithmetic expressions (Figure 3)"),
    _mk("LDS", ds, input_types=["list", "any"],
        description="DS with a list input pattern"),
    _mk("LPE", pe, input_types=["list", "any"],
        description="PE with a list input pattern"),
    _mk("LPL", pl, input_types=["list", "list", "any"],
        description="PL with list input patterns"),
]:
    BENCHMARKS[_bp.name] = _bp

# The annotated verification workload lives in BENCHMARKS (so
# --benchmark CHK and the check/slice server ops can name it) but NOT
# in benchmark_names(): the Table 3 corpus and its fingerprints are
# frozen.
BENCHMARKS["CHK"] = BenchProgram(
    "CHK", chk.SOURCE, chk.QUERY, input_types=chk.INPUT_TYPES,
    description="annotated assertion-checking workload "
                "(one deliberate violation)")


def benchmark(name: str) -> BenchProgram:
    """Look up a benchmark by its paper name (e.g. ``"KA"``)."""
    return BENCHMARKS[name.upper()]


def benchmark_names(include_variants: bool = True) -> List[str]:
    """The Table 3 order, optionally with AR/AR1 and L-variants."""
    base = ["KA", "QU", "PR", "PE", "CS", "DS", "PG", "RE", "BR", "PL"]
    if include_variants:
        return base + ["AR", "AR1", "LDS", "LPE", "LPL"]
    return base
