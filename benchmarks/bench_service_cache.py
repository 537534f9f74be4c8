"""Service-layer cache benchmark.

The acceptance bar for the analysis service: running ``repro batch``
over the built-in benchmark corpus with a *warm* content-addressed
cache must be at least 10x faster than the cold run that populated it
— the warm pass is pure key computation plus store reads, no fixpoint
iteration.  Also measures the third regime, a warm *in-memory* LRU on
top of the same store.
"""

import time

from repro.analysis import format_table
from repro.service import ResultCache, jobs_from_benchmarks, run_batch

from .conftest import report

# A corpus slice that keeps the cold pass to a few seconds while still
# covering recursion classes and input-pattern variants; `--all` on the
# CLI runs the full fifteen.
CORPUS = ["QU", "CS", "DS", "PG", "BR", "PL", "AR", "AR1", "LDS"]


def _timed(fn):
    start = time.perf_counter()
    outcome = fn()
    return outcome, time.perf_counter() - start


def test_warm_cache_is_10x_faster_than_cold(tmp_path):
    jobs = jobs_from_benchmarks(CORPUS)
    cache = ResultCache(tmp_path)

    cold_report, cold = _timed(lambda: run_batch(jobs, cache))
    assert cold_report.misses == len(jobs)

    disk_cache = ResultCache(tmp_path)  # fresh process's view: disk only
    disk_report, disk = _timed(lambda: run_batch(jobs, disk_cache))
    assert disk_report.hits == len(jobs)

    memory_report, memory = _timed(lambda: run_batch(jobs, disk_cache))
    assert memory_report.hits == len(jobs)
    assert disk_cache.stats.memory_hits == len(jobs)

    report(format_table(
        ["regime", "seconds", "speedup"],
        [["cold (analyze + populate)", "%.3f" % cold, "1x"],
         ["warm (disk store)", "%.4f" % disk,
          "%.0fx" % (cold / disk)],
         ["warm (memory LRU)", "%.4f" % memory,
          "%.0fx" % (cold / memory)]],
        title="Service cache: batch over %d workloads" % len(jobs)))

    assert cold / disk >= 10, \
        "warm disk cache only %.1fx faster than cold" % (cold / disk)
    assert cold / memory >= 10

