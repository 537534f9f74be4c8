"""The CI checker's pure gates: the oracle table check and the frozen
benchmark history pass on the committed files and fail on doctored
in-memory copies.  Nothing here spawns a process."""

import copy
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scripts", "ci_check.py")
_spec = importlib.util.spec_from_file_location("ci_check", _PATH)
ci_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_check)

ORACLE = ci_check.ORACLE
HISTORY = ci_check.load_history()


def committed_rows():
    return ci_check.table_rows(copy.deepcopy(HISTORY[4]["current"]))


def test_committed_table_matches_the_oracle():
    assert ci_check.table_problems(ORACLE, committed_rows()) == []


def test_committed_history_holds():
    assert ci_check.history_problems(HISTORY, ORACLE) == []


@pytest.mark.parametrize("field", ["fingerprint", "procedure_iterations",
                                   "clause_iterations"])
def test_table_check_fails_on_one_changed_value(field):
    rows = committed_rows()
    rows["QU"][field] = "0" * 64 if field == "fingerprint" else 1
    [problem] = ci_check.table_problems(ORACLE, rows)
    assert problem.startswith("QU: %s" % field)


def test_table_check_fails_on_a_missing_program():
    rows = committed_rows()
    del rows["RE"]
    assert ci_check.table_problems(ORACLE, rows) == ["RE: not measured"]


def test_leaf_table_check_fails_on_a_repeated_or_inline_leaf():
    from repro import analyze
    from repro.service.serialize import encode_result
    bp = ci_check.benchmark("QU")
    payload = encode_result(analyze(bp.source, bp.query,
                                    input_types=bp.input_types).result)
    assert ci_check.leaf_table_problems(payload) == []
    repeated = copy.deepcopy(payload)
    repeated["leaves"].append(repeated["leaves"][0])
    [problem] = ci_check.leaf_table_problems(repeated)
    assert problem.endswith("is listed 2 times")
    inline = copy.deepcopy(payload)
    node = next(node for entry in inline["entries"]
                for node in entry["beta_in"]["nodes"] if node[0] == "l")
    node[1] = inline["leaves"][node[1]]
    assert ci_check.leaf_table_problems(inline) == [
        "1 leaf nodes hold their value inline"]


def test_warm_check_ignores_timing_and_cache_counters_only():
    from repro import analyze
    from repro.service.serialize import encode_result
    bp = ci_check.benchmark("QU")
    cold = encode_result(analyze(bp.source, bp.query,
                                 input_types=bp.input_types).result)
    warm = copy.deepcopy(cold)
    for stat in ci_check.WARM_VARIANT_STATS:
        warm["stats"][stat] = 0
    assert ci_check.warm_problems("QU", cold, warm) == []
    warm["stats"]["callsite_resumptions"] += 1
    warm["entries"][0]["dependents"].append(99)
    assert ci_check.warm_problems("QU", cold, warm) == [
        "QU: warm entries differs",
        "QU: warm callsite_resumptions %d, cold %d"
        % (cold["stats"]["callsite_resumptions"] + 1,
           cold["stats"]["callsite_resumptions"])]


def test_history_fails_on_a_changed_oracle_fingerprint():
    oracle = copy.deepcopy(ORACLE)
    oracle.programs["QU"]["fingerprint"] = "0" * 64
    problems = ci_check.history_problems(HISTORY, oracle)
    # PR 4's table and all eight table sections now disagree with it
    assert len(problems) == 9
    assert all("QU" in problem for problem in problems)


def test_history_fails_below_a_3x_native_tier_speedup():
    history = copy.deepcopy(HISTORY)
    old = sum(row["wall_time"]
              for row in history[4]["current"]["programs"].values())
    rows = history[8]["current"]["programs"].values()
    new = sum(row["wall_time"] for row in rows)
    for row in rows:
        row["wall_time"] *= old / new / 2.99
    [problem] = ci_check.history_problems(history, ORACLE)
    assert "speedup 2.99x < 3x" in problem


def test_history_fails_on_an_error_in_the_router_kill_chaos_report():
    history = copy.deepcopy(HISTORY)
    history[9]["chaos"]["errors"].append("ConnectionResetError")
    [problem] = ci_check.history_problems(history, ORACLE)
    assert "chaos errors" in problem


def test_perfbench_result_needs_correct_and_zero_failed():
    good = {"correct": True, "failed": 0, "attempted": 12}
    assert ci_check.perfbench_ok(good)
    for doctored in (dict(good, correct=False), dict(good, failed=1), {}):
        assert not ci_check.perfbench_ok(doctored)
