"""Table 3 — Computation Results.

CPU time, procedure iterations and clause iterations per benchmark,
plus the or-degree-restricted runs "(5)" and "(2)".  The paper's
headline shapes are asserted:

* RE is the pathological program, an order of magnitude slower than
  the rest;
* the or-degree restriction dramatically reduces RE's time while
  barely affecting the others.

Absolute times are CPython-vs-1994-C and are not comparable; the
paper's values are printed alongside for reference.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import format_table
from repro.benchprogs import benchmark_names

from .conftest import report

PAPER_TABLE3 = {
    # name: (cpu, proc iters, clause iters, cpu(5), cpu(2))
    "KA": (1.52, 149, 290, 1.27, 1.23),
    "QU": (0.01, 18, 35, 0.01, 0.01),
    "PR": (2.51, 253, 791, 2.35, 2.25),
    "PE": (2.73, 109, 569, 2.06, 1.69),
    "CS": (1.01, 99, 190, 0.97, 1.02),
    "DS": (0.72, 78, 142, 0.61, 0.71),
    "PG": (0.39, 59, 123, 0.37, 0.35),
    "RE": (117.15, 1052, 3300, 23.00, 9.19),
    "BR": (0.38, 72, 165, 0.38, 0.43),
    "PL": (0.31, 50, 98, 0.28, 0.31),
}


@pytest.mark.parametrize("name", benchmark_names(include_variants=False))
def test_table3_per_program(benchmark, name):
    """Times one full analysis per program (the Table 3 row)."""
    from repro import AnalysisConfig, analyze
    from repro.benchprogs import benchmark as get_benchmark
    bp = get_benchmark(name)

    def run():
        return analyze(bp.source, bp.query, input_types=bp.input_types)

    analysis = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = analysis.stats
    paper = PAPER_TABLE3[name]
    benchmark.extra_info.update({
        "procedure_iterations": stats.procedure_iterations,
        "clause_iterations": stats.clause_iterations,
        "paper_cpu": paper[0],
        "paper_procedure_iterations": paper[1],
        "paper_clause_iterations": paper[2],
    })


#: One Table-3 row, measured in a fresh interpreter: the analysis of
#: program ``argv[1]`` at each or-width of Table 3, every one on cold
#: memos, printed as JSON ``[[wall_time, proc-it, clause-it], ...]``.
_ROW_SCRIPT = """
import json, sys
from repro import AnalysisConfig, analyze
from repro.benchprogs import benchmark
from repro.typegraph import opcache
bp = benchmark(sys.argv[1])
row = []
for width in (None, 5, 2):
    opcache.clear()
    analysis = analyze(bp.source, bp.query, input_types=bp.input_types,
                       config=AnalysisConfig(max_or_width=width))
    stats = analysis.stats
    row.append([analysis.wall_time, stats.procedure_iterations,
                stats.clause_iterations])
print(json.dumps(row))
"""


def cold_row(name, runs=3):
    """``_ROW_SCRIPT``'s row for ``name``, best of ``runs`` fresh
    processes per or-width: a row timed after other analyses in the
    same process would replay them from the process-wide memos."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", _ROW_SCRIPT, name],
                             env=env, check=True, capture_output=True,
                             text=True).stdout
        samples.append(json.loads(out))
    return [min(sample[k] for sample in samples) for k in range(3)]


def test_table3_summary(benchmark):
    """Prints the whole table (all three or-width settings) and checks
    the paper's qualitative claims.  Each row runs in fresh processes
    (see :func:`cold_row`)."""
    def gather():
        rows = []
        for name in benchmark_names(include_variants=False):
            full, cap5, cap2 = cold_row(name)
            paper = PAPER_TABLE3[name]
            rows.append([
                name,
                round(full[0], 2), paper[0],
                full[1], paper[1],
                full[2], paper[2],
                round(cap5[0], 2), paper[3],
                round(cap2[0], 2), paper[4],
            ])
        return rows

    rows = benchmark.pedantic(gather, rounds=1, iterations=1)
    print()
    report(format_table(
        ["program", "cpu", "(paper)", "proc-it", "(paper)",
         "clause-it", "(paper)", "cpu(5)", "(paper)", "cpu(2)",
         "(paper)"],
        rows,
        title="Table 3: Computation Results (ours vs paper)"))

    times = {row[0]: row[1] for row in rows}
    others = [t for n, t in times.items() if n != "RE"]
    # RE is the pathological case, as in the paper
    assert times["RE"] > 3 * max(others)
    # the or-degree restriction rescues RE, as in the paper
    cap2 = {row[0]: row[9] for row in rows}
    assert cap2["RE"] < times["RE"] / 2
