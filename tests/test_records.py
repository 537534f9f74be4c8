"""The analysis, check and benchmark-corpus record classes are slotted
:class:`repro._record.Record` subclasses, not dataclasses, with the
constructor signatures, defaults, ``==``, hash and ``repr`` their
``@dataclass`` versions had."""

import dataclasses
import pickle

import pytest

from repro.analysis.analyzer import TypeAnalysis
from repro.assertions.checker import CheckReport, Verdict
from repro.assertions.frontend import Assertion
from repro.assertions.slicer import BlameSlice, SliceStep
from repro.benchprogs import BenchProgram
from repro.fixpoint.builtins import BuiltinSpec
from repro.fixpoint.engine import AnalysisConfig, AnalysisStats, Entry
from repro.prolog.normalize import NormClause, NormProcedure, NormProgram
from repro.prolog.operators import OpDef
from repro.prolog.program import Clause, Procedure, Program
from repro.prolog.terms import Atom

#: One instance of each record class, built from positional fields,
#: with those fields in declaration order.
RECORDS = [
    (AnalysisConfig, (5, 4, 3, 9, 100, None, False, "scc", True, ())),
    (AnalysisStats, (1, 2, 3, 4, 0.5, 6, 7, 8, 9, "lifo", 10, 11)),
    (Entry, (3, ("p", 1), None, None, {1, 2}, 4, 5)),
    (NormClause, (("p", 1), 2, [], None, ["X", "Y"])),
    (NormProcedure, (("p", 1), [])),
    (NormProgram, ({}, [("p", 1)], 2)),
    (Clause, (Atom("p"), [], 3)),
    (Procedure, (("p", 0), [])),
    (Program, ({}, [], [], [])),
    (OpDef, (700, "xfx")),
    (BuiltinSpec, (("any",), True)),
    (TypeAnalysis, (None, None, ("p", 0), None, None, 0.25)),
    (Assertion, ("pattern", ("p", 1), ("int",), 4)),
    (Verdict, (None, "verified", [1], [], [])),
    (CheckReport, ([],)),
    (SliceStep, ("clause", ("p", 1), 0, 1, None, None, None, 2, 0)),
    (BlameSlice, ("key", ("p", 1), 0, [])),
    (BenchProgram, ("QU", "p.", ("p", 0), ("any",), "demo")),
]

FROZEN = (OpDef, BuiltinSpec, Assertion, BenchProgram)

IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_are_slotted_values(cls, fields):
    record = cls(*fields)
    assert not dataclasses.is_dataclass(cls)
    assert not hasattr(record, "__dict__")
    assert tuple(getattr(record, name) for name in cls.__slots__) == fields
    twin = cls(*fields)
    assert twin == record and not twin != record
    assert record != fields  # equality is type-strict
    assert pickle.loads(pickle.dumps(record)) == record
    if cls in FROZEN:
        assert hash(twin) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_field_changes_break_equality(cls, fields):
    record = cls(*fields)
    changed = record.replace(**{cls.__slots__[-1]: "changed"}) \
        if cls is not Assertion else record.replace(specs=("any",))
    assert changed != record


def test_repr_names_every_field_like_a_dataclass():
    assert repr(OpDef(700, "xfx")) == "OpDef(priority=700, type='xfx')"
    assert repr(AnalysisConfig()) == (
        "AnalysisConfig(max_or_width=None, max_input_patterns=8, "
        "widening_delay=2, strict_widening_after=12, "
        "max_procedure_iterations=200000, type_database=None, "
        "differential=True, scheduler='lifo', keep_deps=False, "
        "assertions=())")
    # the classes that define their own repr keep it
    assert repr(Clause(Atom("p"), [])) == "p."


def test_mutable_defaults_are_fresh_per_instance():
    for make, name in ((lambda: Program(), "directives"),
                       (lambda: Procedure(("p", 0)), "clauses"),
                       (lambda: NormProgram(), "order"),
                       (lambda: NormClause(("p", 0), 0, []), "var_names"),
                       (lambda: Entry(0, ("p", 0), None), "dependents"),
                       (lambda: CheckReport(), "verdicts"),
                       (lambda: BlameSlice("k", ("p", 0), 0), "steps")):
        first, second = make(), make()
        assert getattr(first, name) == getattr(second, name)
        assert getattr(first, name) is not getattr(second, name)


def test_assertion_line_is_provenance_only():
    here = Assertion("pattern", ("p", 1), ("int",), 4)
    there = Assertion("pattern", ("p", 1), ("int",), 9)
    assert here == there and hash(here) == hash(there)
    assert "line=4" in repr(here)


def test_replace_revalidates_through_the_constructor():
    config = AnalysisConfig(max_or_width=5)
    assert config.replace(keep_deps=True) == AnalysisConfig(
        max_or_width=5, keep_deps=True)
    with pytest.raises(ValueError):
        config.replace(max_or_width=-1)
