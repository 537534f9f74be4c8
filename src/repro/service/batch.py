"""Batch analysis driver: many (program, query) jobs, cache-first,
optionally through a process pool.

The driver is the service's throughput path: each :class:`Job` is
keyed (:func:`repro.service.cache.make_key`), looked up in the cache,
and only the misses are dispatched — serially, or across a
``concurrent.futures.ProcessPoolExecutor`` when ``workers`` is given.
Work crosses the process boundary as JSON-ready specs and returns as
serialized result payloads, so the pool exercises exactly the
serialization layer the on-disk cache uses.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.analyzer import analyze
from ..fixpoint.engine import AnalysisConfig
from ..prolog.program import PredId, Program
from ..typegraph.grammar import Grammar
from .cache import CacheKey, ResultCache, make_key
from .serialize import (decode_config, decode_input_types, decode_result,
                        encode_check, encode_config, encode_input_types,
                        result_head)
from .wire import encode_payload

__all__ = ["Job", "JobResult", "BatchReport", "WorkerPool", "run_batch",
           "jobs_from_benchmarks"]


@dataclass(frozen=True)
class Job:
    """One analysis workload."""

    name: str
    source: str
    query: PredId
    input_types: Optional[Tuple[Union[str, Grammar], ...]] = None
    config: Optional[AnalysisConfig] = None
    baseline: bool = False

    def key(self) -> CacheKey:
        return make_key(self.source, self.query, self.input_types,
                        self.config, self.baseline)


@dataclass
class JobResult:
    """Outcome of one job: the serialized payload plus provenance."""

    name: str
    key: CacheKey
    payload: dict
    cached: bool
    seconds: float

    def result(self, program=None):
        """Decode the payload into an ``AnalysisResult``."""
        return decode_result(self.payload, program)


@dataclass
class BatchReport:
    results: List[JobResult] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    seconds: float = 0.0

    def by_name(self) -> Dict[str, JobResult]:
        return {r.name: r for r in self.results}


def _job_spec(job: Job) -> dict:
    """JSON-ready form of a job for the process boundary."""
    return {
        "name": job.name,
        "source": job.source,
        "query": list(job.query),
        "input_types": encode_input_types(job.input_types),
        "config": (None if job.config is None
                   else encode_config(job.config)),
        "baseline": job.baseline,
    }


def _execute_spec(spec: dict, program: Optional[Program] = None
                  ) -> Tuple[str, dict, float]:
    """Worker entry point: run one analysis, return the serialized
    result.  Top-level so the process pool can pickle it; also the
    unit of work the :mod:`repro.service.server` daemon dispatches, so
    server and batch exercise the identical execution path.

    ``program``, when given, is ``spec["source"]`` already parsed (the
    server parses it once to key the request); otherwise the source is
    parsed here.

    A spec with ``"check": True`` is a verification workload: the
    config carries the assertion set (and ``keep_deps``), and the
    payload gains a ``check`` section — verdicts plus blame slices —
    next to the encoded table, so cached hits serve bit-identical
    verdicts.

    The payload comes back as a :class:`~repro.service.wire.EncodedPayload`
    whose canonical bytes (the CLI's ``--json`` form of the payload)
    and fingerprint are assembled here, in the executor, so no caller
    re-encodes it.  The table's dict is not built: the payload decodes
    its ``entries`` and ``leaves`` from its bytes if they are read."""
    config = (None if spec["config"] is None
              else decode_config(spec["config"]))
    start = time.perf_counter()
    analysis = analyze(spec["source"] if program is None else program,
                       (spec["query"][0], int(spec["query"][1])),
                       input_types=decode_input_types(spec["input_types"]),
                       config=config,
                       baseline=spec["baseline"])
    payload = result_head(analysis.result)
    if spec.get("check"):
        from ..assertions import check_analysis
        assertions = (config.assertions
                      if config is not None and config.assertions
                      else None)
        report, slices = check_analysis(analysis, assertions)
        payload["check"] = encode_check(report, slices)
    payload = encode_payload(analysis.result, payload)
    seconds = time.perf_counter() - start
    return spec["name"], payload, seconds


def _settled(execute, *args):
    """Run one fresh analysis, ``execute(*args)``, with the cyclic
    collector paused, then settle the executor's heap: collect the
    cyclic garbage the analysis left and move every survivor out of
    the cyclic collector's scan set (``gc.freeze``).  An analysis
    leaves almost no cyclic garbage, so collections during it would
    only re-walk the heap it is building; later full collections walk
    only what the next analysis allocates, not the warm heap of
    interned grammars, substitutions and memo tables.  Frozen objects
    still die by refcount, so evicting a cached result still frees its
    memory.

    The collector is switched back on (if it was on) however the
    analysis ends.  The heap is settled only after a successful
    return: while an analysis error propagates, its traceback still
    reaches the analysis frames, and freezing them would keep them for
    good.  The next successful call's collection reclaims them
    instead."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = execute(*args)
    finally:
        if was_enabled:
            gc.enable()
    gc.collect()
    gc.freeze()
    return result


def _warm_worker() -> None:
    """Pool initializer: pay the import/intern cold-start once per
    worker process instead of once per dispatched analysis.  Touching
    the common leaf grammars seeds the intern table and the arena
    symbol table, so the first real request runs warm."""
    from ..typegraph.grammar import g_any, g_atom, g_int
    from ..typegraph.ops import g_list_of
    from ..typegraph import arena  # noqa: F401  (compiles lazily)
    g_list_of(g_any())
    g_list_of(g_int())
    g_atom("[]")


def _worker_ready() -> None:
    """No-op task used by :meth:`WorkerPool.prefork` to force worker
    start-up (the initializer does the actual warming)."""


class WorkerPool:
    """A persistent, pre-warmed process pool executing analysis specs.

    Extracted from :func:`run_batch` so a long-lived server can keep
    the *same* pool — and therefore each worker's intern tables,
    opcache, and arenas — warm across many requests, where the batch
    driver used to build and tear one down per call.  Workers are
    single-threaded processes, which is what makes the unlocked memo
    tables safe (see :mod:`repro.typegraph.opcache`).

    Fork discipline: on POSIX the workers are forked, and a fork taken
    while another thread holds one of the intern/cache locks would
    hand the child that lock forever-held (``_warm_worker`` interns
    grammars and would deadlock).  Create the executor — or call
    :meth:`prefork` — while the process is still effectively
    single-threaded; the server does this in ``start()``, and
    ``run_batch`` runs on the CLI's only thread.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor = None

    @property
    def executor(self):
        """The underlying ``ProcessPoolExecutor``, created (and its
        workers warmed) on first use."""
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_warm_worker)
        return self._executor

    def prefork(self) -> None:
        """Spawn (and warm) every worker process *now* instead of on
        first submit: one no-op task per worker forces the pool to
        full size while the caller still controls the threading
        picture."""
        from concurrent.futures import wait
        wait([self.executor.submit(_worker_ready)
              for _ in range(self.workers)])

    def submit_spec(self, spec: dict):
        """Dispatch one spec; returns a ``concurrent.futures.Future``
        resolving to ``(name, payload, seconds)``."""
        return self.executor.submit(_settled, _execute_spec, spec)

    def map_specs(self, specs: Sequence[dict]):
        """Execute ``specs`` across the pool, results in order."""
        return list(self.executor.map(partial(_settled, _execute_spec),
                                       specs))

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def run_batch(jobs: Sequence[Job],
              cache: Optional[ResultCache] = None,
              workers: Optional[int] = None) -> BatchReport:
    """Analyze ``jobs``, consulting ``cache`` before dispatch.

    ``workers``: ``None``/``0``/``1`` runs misses serially in-process;
    ``>= 2`` fans them out over a process pool of that size.  Results
    come back in job order either way.
    """
    report = BatchReport()
    start = time.perf_counter()
    pending: List[Tuple[int, Job, CacheKey]] = []
    slots: List[Optional[JobResult]] = [None] * len(jobs)
    for index, job in enumerate(jobs):
        key = job.key()
        payload = cache.get(key) if cache is not None else None
        if payload is not None:
            slots[index] = JobResult(job.name, key, payload,
                                     cached=True, seconds=0.0)
            report.hits += 1
        else:
            pending.append((index, job, key))
            report.misses += 1

    if pending:
        specs = [_job_spec(job) for _, job, _ in pending]
        if workers is not None and workers >= 2 and len(pending) > 1:
            with WorkerPool(workers) as pool:
                outcomes = pool.map_specs(specs)
        else:
            outcomes = [_settled(_execute_spec, spec) for spec in specs]
        for (index, job, key), (name, payload, seconds) in \
                zip(pending, outcomes):
            slots[index] = JobResult(name, key, payload,
                                     cached=False, seconds=seconds)
            if cache is not None:
                cache.put(key, payload)

    report.results = [slot for slot in slots if slot is not None]
    report.seconds = time.perf_counter() - start
    return report


def jobs_from_benchmarks(names: Optional[Sequence[str]] = None,
                         config: Optional[AnalysisConfig] = None,
                         baseline: bool = False) -> List[Job]:
    """Jobs for the built-in §9 corpus (default: all 15 workloads)."""
    from ..benchprogs import benchmark, benchmark_names
    if names is None:
        names = benchmark_names()
    jobs = []
    for name in names:
        bp = benchmark(name)
        jobs.append(Job(name=bp.name, source=bp.source, query=bp.query,
                        input_types=bp.input_types, config=config,
                        baseline=baseline))
    return jobs
