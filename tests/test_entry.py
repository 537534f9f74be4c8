"""The process entry point: ``python -m repro`` (and the ``repro``
script) runs a one-shot command with the GC paused and skips heap
teardown; the in-process ``main()`` does neither.  Also the import
hygiene of the one-shot analyze path."""

import gc
import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import BENCHMARK_NAMES, main
from repro.prolog.parser import MAX_DEPTH

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

APPEND = """
app([], X, X).
app([F|T], S, [F|R]) :- app(T, S, R).
"""

#: Stats that depend on the process an analysis ran in (clocks, the
#: warmth of the process-wide operation caches and intern tables),
#: not on the program.
PROCESS_STATS = ("cpu_time", "opcache_hits", "opcache_misses",
                 "arena_compiles")


def run_repro(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          env=env, capture_output=True, timeout=300)


def without_process_state(output: dict) -> dict:
    output = dict(output, result=dict(output["result"]))
    output.pop("wall_time")
    output["result"]["stats"] = {
        name: value for name, value in output["result"]["stats"].items()
        if name not in PROCESS_STATS}
    return output


@pytest.fixture
def append_file(tmp_path):
    path = tmp_path / "app.pl"
    path.write_text(APPEND)
    return str(path)


def test_analyze_exits_zero_with_complete_json(append_file, capsys):
    proc = run_repro(append_file, "app/3", "--json")
    assert proc.returncode == 0, proc.stderr
    piped = json.loads(proc.stdout)
    assert piped["query"] == ["app", 3]
    # compact, sorted keys, one line
    assert proc.stdout.decode().count("\n") == 1
    assert proc.stdout.startswith(b'{"program_hash":')

    assert main([append_file, "app/3", "--json"]) == 0
    in_process = json.loads(capsys.readouterr().out)
    assert without_process_state(piped) == \
        without_process_state(in_process)


def test_check_violation_exits_one_with_complete_json(capsys):
    proc = run_repro("check", "--benchmark", "CHK", "--json")
    assert proc.returncode == 1, proc.stderr
    piped = json.loads(proc.stdout)
    assert piped["passed"] is False
    assert main(["check", "--benchmark", "CHK", "--json"]) == 1
    assert piped == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["--no-such-flag"],
    ["only-a-file.pl"],
    ["check", "--benchmark", "CHK", "--no-such-flag"],
    ["router", "--anti-entropy-interval", "1"],
])
def test_usage_errors_exit_two(argv):
    proc = run_repro(*argv)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr


def test_missing_and_unparsable_files_are_usage_errors(tmp_path):
    bad = tmp_path / "bad.pl"
    bad.write_text("p(a.\n")
    unterminated = tmp_path / "quote.pl"
    unterminated.write_text('p(a) :- "\n')
    cut_code = tmp_path / "code.pl"
    cut_code.write_text("p(0'\\")   # input ends after the backslash
    for argv in ([str(tmp_path / "missing.pl"), "p/1"],
                 [str(bad), "p/1"], [str(unterminated), "p/1"],
                 ["check", str(unterminated), "p/1"],
                 [str(cut_code), "p/1"], ["check", str(cut_code), "p/1"]):
        proc = run_repro(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith(b"error: "), proc.stderr
        assert b"Traceback" not in proc.stderr
        assert main(argv) == 2


def test_postfix_operator_used_as_an_atom_analyzes(tmp_path, capsys):
    path = tmp_path / "postfix.pl"
    path.write_text(":- op(200, xf, ++).\np(++).\n")
    for argv in ([str(path), "p/1", "--json"], ["check", str(path), "p/1"]):
        proc = run_repro(*argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert b"Traceback" not in proc.stderr
    assert main([str(path), "p/1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["query"] == ["p", 1]


def nested_fact(depth, open_="f(", close=")"):
    """``p(...)`` whose innermost atom sits ``depth`` levels deep (the
    clause term itself is level 1)."""
    return "p(%sa%s).\n" % (open_ * (depth - 2), close * (depth - 2))


@pytest.mark.parametrize("open_, close", [("f(", ")"), ("[", "]")],
                         ids=["args", "list"])
def test_nesting_at_the_limit_analyzes(tmp_path, open_, close):
    path = tmp_path / "deep.pl"
    path.write_text(nested_fact(MAX_DEPTH, open_, close))
    proc = run_repro(str(path), "p/1", "--json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["query"] == ["p", 1]
    proc = run_repro("check", str(path), "p/1")
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("open_, close", [("f(", ")"), ("[", "]")],
                         ids=["args", "list"])
def test_nesting_ten_times_the_limit_exits_two(tmp_path, open_, close):
    path = tmp_path / "deeper.pl"
    path.write_text(nested_fact(10 * MAX_DEPTH, open_, close))
    column = len(open_) * (MAX_DEPTH - 1) + 3
    for argv in ([str(path), "p/1"], ["check", str(path), "p/1"]):
        proc = run_repro(*argv)
        assert proc.returncode == 2, argv
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(
            b"error: term nested deeper than %d levels at line 1, "
            b"column %d" % (MAX_DEPTH, column)), proc.stderr


#: Terms nested far past the parser's limit, but flat in the source:
#: a long list (its tail) and a long left-associated operator chain,
#: alone and passed to a call.
FLAT = {"list": "p([%s]).\n" % ",".join(map(str, range(3500))),
        "sum": "p(X) :- X = %s.\n" % "+".join(["1"] * 3500),
        "call": "p(X) :- X = [%s], q(X).\nq(_).\n"
                % ",".join(map(str, range(3500)))}


@pytest.mark.parametrize("name", sorted(FLAT))
def test_a_long_flat_term_analyzes(tmp_path, name):
    path = tmp_path / ("%s.pl" % name)
    path.write_text(FLAT[name])
    for argv in ([str(path), "p/1", "--json"], ["check", str(path), "p/1"],
                 [str(path), "p/1", "--tags"]):
        proc = run_repro(*argv)
        assert proc.returncode == 0, (argv, proc.stderr[-2000:])
        assert b"Traceback" not in proc.stderr
    assert json.loads(run_repro(str(path), "p/1", "--json").stdout
                      )["query"] == ["p", 1]


def test_closed_pipe_ends_quietly():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--benchmark", "KA", "--json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(20).startswith(b"{")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) in (0, 1)
    assert b"Traceback" not in stderr, stderr
    assert b"BrokenPipeError" not in stderr, stderr


def test_in_process_main_keeps_the_gc_on(append_file, capsys):
    assert gc.isenabled()
    assert main([append_file, "app/3", "--json"]) == 0
    assert main(["check", "--benchmark", "CHK"]) == 1
    assert gc.isenabled()


def test_benchmark_names_match_the_corpus():
    from repro.benchprogs import BENCHMARKS
    assert BENCHMARK_NAMES == tuple(sorted(BENCHMARKS))


#: Modules a ``--json`` analysis never needs on either tier.
NEVER_LOADED = {
    "repro.service.batch", "repro.service.cache",
    "repro.prolog.interpreter",
    "repro.assertions", "repro.benchprogs",
    "repro.analysis.callgraph", "repro.analysis.report",
    "repro.analysis.tags", "repro.typegraph.display",
    "repro.typegraph.views", "repro.typegraph.depthbound",
    "repro.commands", "dataclasses",
}

#: The python tier's code, which a native-tier analysis never runs.
PYTHON_TIER = {
    "repro.typegraph._python", "repro.typegraph.reference",
    "repro.typegraph.widenloop", "repro.typegraph.graph",
    "repro.domains.pybuilder",
}


def one_shot_modules(argv, tier):
    """(exit code, loaded module names, stdout) of a fresh ``import
    repro.__main__`` plus one ``main(argv)`` on kernel tier ``tier``;
    the tier the child actually ran is the first loaded name."""
    code = (
        "import io, os, sys\n"
        "import repro.__main__ as cli\n"
        "out = io.StringIO()\n"
        "sys.stdout = out\n"
        "code = cli.main(%r)\n"
        "sys.stdout = sys.__stdout__\n"
        "from repro.typegraph import arena\n"
        "print(code, arena.kernel(), ' '.join(sorted(\n"
        "    m for m in sys.modules\n"
        "    if m.startswith('repro') or m == 'dataclasses')))\n"
        "sys.stdout.write(out.getvalue())\n" % (argv,))
    env = dict(os.environ, REPRO_ARENA_KERNEL=tier)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    first, output = proc.stdout.split("\n", 1)
    code, active, loaded = first.split(" ", 2)
    return int(code), active, set(loaded.split()), output


def test_one_shot_analysis_loads_only_what_it_uses(append_file):
    """A fresh ``import repro.__main__`` plus one ``--json`` analysis
    leaves the batch/cache/server stack, the interpreter, the
    assertion checker, the benchmark corpus, the display/report
    helpers, the other commands and ``dataclasses`` unloaded.  On the
    native tier the python tier's code stays unloaded too: its
    kernels, the widening loop with the graph view, the references
    and the Python substitution builder."""
    code, active, loaded, _ = one_shot_modules(
        [append_file, "app/3", "--json"], "native")
    assert code == 0
    assert "repro.fixpoint.engine" in loaded
    forbidden = set(NEVER_LOADED)
    if active == "native":
        forbidden |= PYTHON_TIER
    assert not loaded & forbidden, sorted(loaded & forbidden)
    if active != "native":
        pytest.skip("the native tier is unavailable here")


def test_python_tier_one_shot_analysis_matches_native(append_file):
    """The same call on the python tier loads that tier's kernels, not
    the native helper or the Grammar-level references (test oracles
    only), and prints the payload the native tier prints."""
    from repro.service.serialize import payload_fingerprint

    code, active, loaded, output = one_shot_modules(
        [append_file, "app/3", "--json"], "python")
    assert code == 0 and active == "python"
    assert "repro.typegraph._python" in loaded
    forbidden = NEVER_LOADED | {"repro.typegraph._native",
                                "repro.typegraph.reference"}
    assert not loaded & forbidden, sorted(loaded & forbidden)
    _, _, _, native_output = one_shot_modules(
        [append_file, "app/3", "--json"], "native")
    assert payload_fingerprint(json.loads(output)["result"]) == \
        payload_fingerprint(json.loads(native_output)["result"])
