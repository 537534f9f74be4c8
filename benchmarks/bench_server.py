#!/usr/bin/env python
"""Load generator for the ``repro serve`` daemon and the ``repro
router`` cluster — the PR 5 and PR 6 acceptance harnesses.

``--mode server`` (default, PR 5) measures, on the Table-3 suite:

* **one-shot CLI baseline** — one ``python -m repro --benchmark NAME
  --json`` subprocess per request, the process-per-request regime the
  server exists to replace; records per-program wall time and the
  result fingerprint of each payload;
* **cold server** — the first pass over the suite against a freshly
  spawned daemon (pays each analysis once, through the same
  ``_execute_spec`` path as batch);
* **warm server** — N concurrent clients (default 32) hammering the
  suite round-robin; every response's fingerprint must equal the
  one-shot CLI's, and throughput must clear ``--min-speedup`` (default
  5x) over the one-shot regime;
* **coalescing** — N clients firing the *same cold key*
  simultaneously must produce exactly one underlying analysis.

``--mode router`` (PR 6) drives a ``repro router`` front door:

* **Table-3 through the router** — every fingerprint must equal the
  one-shot CLI's;
* **scaling sweep** — 1/2/4 spawned shards under 32 clients (several
  *load worker subprocesses* so the generator is not GIL-bound)
  replaying a Zipf-distributed hot set of distinct programs that is
  deliberately larger than one shard's ``--max-memory-entries``:
  consistent hashing partitions the working set, so each added shard
  raises the fleet-wide warm-cache hit rate — that is where the req/s
  scaling comes from on this single-CPU container, and it is the same
  mechanism that scales a multi-core fleet;
* **failover** — SIGKILL one of two shards mid-run (shared
  ``--cache-dir`` as the L2): every accepted request must still
  succeed, with fingerprints intact, via replica failover + disk
  promotion.

Typical uses::

    PYTHONPATH=src python benchmarks/bench_server.py
    PYTHONPATH=src python benchmarks/bench_server.py \
        --clients 32 --rounds 4 --write-bench server.json
    PYTHONPATH=src python benchmarks/bench_server.py --mode router \
        --write-bench router.json

Exit status is non-zero on any fingerprint mismatch, a coalescing or
failover failure, or a missed throughput bar.  The committed reports
it once wrote (``BENCH_pr5/6/7/9.json``) are frozen history, checked
by ``python scripts/ci_check.py history``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.benchprogs import benchmark, benchmark_names  # noqa: E402
from repro.service.client import (ServeClient, spawn_router,  # noqa: E402
                                  spawn_server)
from repro.service.serialize import payload_fingerprint  # noqa: E402

SCHEMA = 1


def run_oneshot_cli(programs) -> dict:
    """Process-per-request baseline through the real CLI."""
    per_program = {}
    total = 0.0
    for name in programs:
        start = time.perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--benchmark", name,
             "--json"],
            capture_output=True, text=True, check=True,
            cwd=str(REPO_ROOT), env=env)
        seconds = time.perf_counter() - start
        payload = json.loads(completed.stdout)["result"]
        per_program[name] = {
            "seconds": round(seconds, 4),
            "fingerprint": payload_fingerprint(payload),
        }
        total += seconds
        print("  one-shot %-4s %6.3fs" % (name, seconds),
              file=sys.stderr)
    return {
        "per_program": per_program,
        "requests": len(programs),
        "total_seconds": round(total, 4),
        "requests_per_second": round(len(programs) / total, 4),
    }


def run_server_phases(programs, clients, rounds, oneshot) -> dict:
    process, host, port = spawn_server("--timeout", "300",
                                       "--max-pending", "128")
    try:
        return _server_phases(programs, clients, rounds, oneshot,
                              host, port)
    finally:
        try:
            with ServeClient(host, port, timeout=30) as client:
                client.shutdown()
            process.wait(timeout=60)
        except Exception:
            process.terminate()
            process.wait(timeout=30)


def _server_phases(programs, clients, rounds, oneshot, host,
                   port) -> dict:
    report: dict = {}

    # -- cold pass: each analysis once, via the server ------------------
    cold = {}
    mismatches = []
    with ServeClient(host, port, timeout=600) as client:
        for name in programs:
            result = client.analyze(benchmark=name, payload=False)
            cold[name] = round(result["seconds"], 4)
            if result["fingerprint"] != \
                    oneshot["per_program"][name]["fingerprint"]:
                mismatches.append(name)
            print("  cold-server %-4s %6.3fs" % (name, cold[name]),
                  file=sys.stderr)
    report["server_cold"] = {"per_program_seconds": cold,
                             "total_seconds": round(sum(cold.values()),
                                                    4)}

    # -- warm load: `clients` concurrent clients, round-robin -----------
    with ServeClient(host, port) as client:
        stats_before = client.stats()
    lock = threading.Lock()
    failures: list = []
    observed: dict = {name: set() for name in programs}

    def drive(worker: int) -> None:
        try:
            with ServeClient(host, port, timeout=300) as session:
                for i in range(rounds * len(programs)):
                    name = programs[(worker + i) % len(programs)]
                    result = session.analyze(benchmark=name,
                                             payload=False)
                    with lock:
                        observed[name].add(result["fingerprint"])
        except BaseException as error:
            with lock:
                failures.append("client %d: %r" % (worker, error))

    threads = [threading.Thread(target=drive, args=(w,))
               for w in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    with ServeClient(host, port) as client:
        stats_after = client.stats()

    for name in programs:
        expected = {oneshot["per_program"][name]["fingerprint"]}
        if observed[name] != expected:
            mismatches.append(name)
    requests = clients * rounds * len(programs)
    report["server_warm"] = {
        "clients": clients,
        "rounds": rounds,
        "requests": requests,
        "total_seconds": round(wall, 4),
        "requests_per_second": round(requests / wall, 2),
        "latency": stats_after["latency"],
        "analyses_executed_during_load":
            stats_after["analyses_executed"]
            - stats_before["analyses_executed"],
        "cache_hit_rate": stats_after["cache"]["hit_rate"],
        "failures": failures,
        "fingerprints_identical": not mismatches,
    }
    report["fingerprint_mismatches"] = sorted(set(mismatches))

    # -- coalescing: same cold key from every client at once ------------
    source = "coalesce_probe([]).\ncoalesce_probe([X|Xs]) :- " \
             "coalesce_probe(Xs).\n"
    with ServeClient(host, port) as client:
        before = client.stats()
    barrier = threading.Barrier(clients)
    coalesce_failures: list = []

    def dup(worker: int) -> None:
        try:
            with ServeClient(host, port, timeout=300) as session:
                barrier.wait(timeout=60)
                session.analyze(source=source,
                                query=("coalesce_probe", 1),
                                payload=False)
        except BaseException as error:
            coalesce_failures.append("client %d: %r" % (worker, error))

    threads = [threading.Thread(target=dup, args=(w,))
               for w in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    with ServeClient(host, port) as client:
        after = client.stats()
    report["coalescing"] = {
        "clients": clients,
        "analyses_executed": after["analyses_executed"]
        - before["analyses_executed"],
        "coalesced": after["coalesced"] - before["coalesced"],
        "failures": coalesce_failures,
    }
    return report


# -- router mode (PR 6) ------------------------------------------------------

def make_hotset(width, base="QU"):
    """``width`` distinct programs of identical analysis cost: the
    base benchmark plus one inert pad fact per variant.  Every variant
    has its own ``program_hash`` (its own cache key and ring position)
    but the pad predicate is outside the query cone, so every variant's
    result fingerprint equals the base benchmark's — which ties the
    whole synthetic hot set back to the one-shot CLI's fingerprint."""
    bp = benchmark(base)
    return [{
        "name": "%s~%02d" % (base, index),
        "base": base,
        "source": bp.source + "\nhotset_pad_%02d(x).\n" % index,
        "query": list(bp.query),
        "input_types": bp.input_types,
    } for index in range(width)]


def zipf_weights(count, s):
    return [1.0 / (rank ** s) for rank in range(1, count + 1)]


def load_worker_main() -> int:
    """Hidden subprocess mode: replay a Zipf-weighted workload spec
    (JSON on stdin) with N threads against one endpoint, report JSON
    on stdout.  Run as a separate *process* so 32 blocking clients are
    not serialized behind one generator GIL."""
    spec = json.load(sys.stdin)
    jobs = spec["jobs"]
    weights = spec["weights"]
    indices = list(range(len(jobs)))
    lock = threading.Lock()
    counts = [0] * len(jobs)
    fingerprints = [set() for _ in jobs]
    latencies: list = []
    errors: list = []

    endpoints = spec.get("endpoints")
    if endpoints is not None:
        endpoints = [(host, int(port)) for host, port in endpoints]

    def drive(thread_index: int) -> None:
        rng = random.Random(spec["seed"] * 1000 + thread_index)
        local_counts = [0] * len(jobs)
        local_fp = [set() for _ in jobs]
        local_lat = []
        try:
            with (ServeClient(endpoints=endpoints, timeout=120)
                  if endpoints is not None
                  else ServeClient(spec["host"], spec["port"],
                                   timeout=120)) as session:
                now = time.time()
                if spec["start_at"] > now:
                    time.sleep(spec["start_at"] - now)
                deadline = spec["start_at"] + spec["seconds"]
                while time.time() < deadline:
                    index = rng.choices(indices, weights=weights)[0]
                    job = jobs[index]
                    begin = time.perf_counter()
                    result = session.analyze(
                        source=job["source"],
                        query=tuple(job["query"]),
                        input_types=job.get("input_types"),
                        payload=False)
                    local_lat.append(time.perf_counter() - begin)
                    local_counts[index] += 1
                    local_fp[index].add(result["fingerprint"])
        except BaseException as error:
            with lock:
                errors.append(repr(error))
        with lock:
            for index in indices:
                counts[index] += local_counts[index]
                fingerprints[index] |= local_fp[index]
            latencies.extend(local_lat)

    threads = [threading.Thread(target=drive, args=(t,))
               for t in range(spec["threads"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    json.dump({
        "requests": sum(counts),
        "errors": errors[:5],
        "counts": counts,
        "fingerprints": [sorted(fp) for fp in fingerprints],
        "latencies": [round(value, 5) for value in latencies],
    }, sys.stdout)
    return 0


def run_load_workers(host, port, jobs, weights, processes, threads,
                     seconds, mid_run=None, endpoints=None):
    """Drive ``processes x threads`` clients for ``seconds`` with a
    synchronized start; optionally call ``mid_run()`` halfway through
    (the failover phase kills a shard there).  ``endpoints`` hands
    every worker a router endpoint *list* instead of one address —
    the router-kill phase needs clients that can ride out the front
    door dying.  Returns the merged worker reports."""
    start_at = time.time() + 1.5
    spec = {"host": host, "port": port, "jobs": jobs,
            "weights": weights, "threads": threads,
            "seconds": seconds, "start_at": start_at}
    if endpoints is not None:
        spec["endpoints"] = [list(endpoint) for endpoint in endpoints]
    workers = []
    for index in range(processes):
        process = subprocess.Popen(
            [sys.executable, __file__, "--load-worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(REPO_ROOT))
        process.stdin.write(json.dumps(dict(spec, seed=index)))
        process.stdin.close()
        workers.append(process)
    if mid_run is not None:
        time.sleep(max(0.0, start_at - time.time()) + seconds / 2.0)
        mid_run()
    reports = []
    for process in workers:
        output = process.stdout.read()
        process.wait(timeout=600)
        reports.append(json.loads(output))
    merged = {
        "requests": sum(r["requests"] for r in reports),
        "errors": [e for r in reports for e in r["errors"]],
        "counts": [sum(r["counts"][i] for r in reports)
                   for i in range(len(jobs))],
        "fingerprints": [sorted(set().union(*(set(r["fingerprints"][i])
                                              for r in reports)))
                         for i in range(len(jobs))],
    }
    latencies = sorted(value for r in reports for value in r["latencies"])
    if latencies:
        merged["latency"] = {
            "count": len(latencies),
            "p50": round(latencies[len(latencies) // 2], 5),
            "p95": round(latencies[min(len(latencies) - 1,
                                       int(0.95 * len(latencies)))], 5),
        }
    else:
        merged["latency"] = {"count": 0, "p50": None, "p95": None}
    return merged


def _check_hotset_fingerprints(jobs, merged, expected, mismatches):
    for index, job in enumerate(jobs):
        observed = set(merged["fingerprints"][index])
        if observed and observed != {expected[job["base"]]}:
            mismatches.append(job["name"])


def run_router_scaling(shard_counts, hotset, expected, clients,
                       processes, seconds, max_memory) -> dict:
    """The scaling sweep: same workload, same total client count, only
    the shard count changes."""
    threads = max(1, clients // processes)
    weights = zipf_weights(len(hotset), 1.1)
    sweep: dict = {}
    mismatches: list = []
    for count in shard_counts:
        print("scaling: %d shard(s), %d clients, %.0fs..."
              % (count, processes * threads, seconds), file=sys.stderr)
        process, host, port = spawn_router(
            "--spawn", str(count),
            "--max-memory-entries", str(max_memory),
            "--pool-size", "4", "--health-interval", "0.5")
        try:
            with ServeClient(host, port, timeout=600) as client:
                for job in hotset:  # warm pass: each program once
                    result = client.analyze(
                        source=job["source"], query=tuple(job["query"]),
                        input_types=job.get("input_types"),
                        payload=False)
                    if result["fingerprint"] != expected[job["base"]]:
                        mismatches.append(job["name"] + ":warm")
            merged = run_load_workers(host, port, hotset, weights,
                                      processes, threads, seconds)
            _check_hotset_fingerprints(hotset, merged, expected,
                                       mismatches)
            with ServeClient(host, port, timeout=60) as client:
                stats = client.stats()
                client.shutdown()
            process.wait(timeout=60)
        except BaseException:
            process.terminate()
            raise
        sweep[str(count)] = {
            "shards": count,
            "requests": merged["requests"],
            "seconds": seconds,
            "requests_per_second": round(merged["requests"] / seconds,
                                         2),
            "errors": merged["errors"],
            "latency": merged["latency"],
            "cache_hit_rate": stats["merged"]["cache"]["hit_rate"],
            "analyses_executed": stats["merged"]["analyses_executed"],
            "failovers": stats["router"]["failovers"],
        }
        print("  %d shard(s): %7.1f req/s, hit rate %s, p50=%ss"
              % (count, sweep[str(count)]["requests_per_second"],
                 sweep[str(count)]["cache_hit_rate"],
                 merged["latency"]["p50"]), file=sys.stderr)
    return {"sweep": sweep, "mismatches": mismatches}


def run_router_failover(hotset, expected, processes, threads,
                        seconds) -> dict:
    """Two shards over a shared disk L2; SIGKILL one mid-run.  Every
    accepted request must succeed (replica failover + cross-shard
    promotion), every fingerprint must stay identical."""
    mismatches: list = []
    with tempfile.TemporaryDirectory(prefix="repro-l2-") as cache_dir:
        process, host, port = spawn_router(
            "--spawn", "2", "--cache-dir", cache_dir,
            "--max-memory-entries", "64", "--pool-size", "4",
            "--health-interval", "0.3", "--backoff", "0.02",
            "--down-after", "2")
        try:
            with ServeClient(host, port, timeout=600) as client:
                for job in hotset:
                    result = client.analyze(
                        source=job["source"], query=tuple(job["query"]),
                        input_types=job.get("input_types"),
                        payload=False)
                    if result["fingerprint"] != expected[job["base"]]:
                        mismatches.append(job["name"] + ":warm")
                stats = client.stats()
            shard_pids = {shard_id: shard["pid"]
                          for shard_id, shard in stats["shards"].items()}
            victim = sorted(shard_pids)[0]

            def kill_victim():
                print("  SIGKILL shard %s (pid %d) mid-run"
                      % (victim, shard_pids[victim]), file=sys.stderr)
                os.kill(shard_pids[victim], signal.SIGKILL)

            weights = zipf_weights(len(hotset), 1.1)
            merged = run_load_workers(host, port, hotset, weights,
                                      processes, threads, seconds,
                                      mid_run=kill_victim)
            _check_hotset_fingerprints(hotset, merged, expected,
                                       mismatches)
            with ServeClient(host, port, timeout=60) as client:
                info = client.router_info()
                client.shutdown()
            process.wait(timeout=60)
        except BaseException:
            process.terminate()
            raise
    return {
        "killed_shard": victim,
        "requests": merged["requests"],
        "requests_per_second": round(merged["requests"] / seconds, 2),
        "errors": merged["errors"],
        "failovers": info["failovers"],
        "shard_status_after": {shard_id: shard["status"]
                               for shard_id, shard
                               in info["shards"].items()},
        "mismatches": mismatches,
    }


def run_table3_through_router(programs, oneshot) -> dict:
    """The whole Table-3 suite through the front door; fingerprints
    must equal the one-shot CLI's."""
    process, host, port = spawn_router("--spawn", "2", "--pool-size",
                                       "4")
    mismatches = []
    per_program = {}
    try:
        with ServeClient(host, port, timeout=600) as client:
            for name in programs:
                result = client.analyze(benchmark=name, payload=False)
                per_program[name] = {
                    "seconds": round(result["seconds"], 4),
                    "fingerprint": result["fingerprint"],
                }
                if result["fingerprint"] != \
                        oneshot["per_program"][name]["fingerprint"]:
                    mismatches.append(name)
                print("  router %-4s %6.3fs" % (name,
                                                result["seconds"]),
                      file=sys.stderr)
            report = client.batch(benchmarks=list(programs))
            for job in report["jobs"]:
                if (not job.get("ok")
                        or job["fingerprint"] !=
                        oneshot["per_program"][job["name"]]
                        ["fingerprint"]):
                    mismatches.append(job["name"] + ":batch")
            client.shutdown()
        process.wait(timeout=60)
    except BaseException:
        process.terminate()
        raise
    return {"per_program": per_program,
            "batch_jobs": len(report["jobs"]),
            "mismatches": mismatches}


# -- chaos mode (PR 7 + PR 9) ------------------------------------------------

#: Seeded fault plan for the chaos run's shards: small, frequent
#: transport failures the router must absorb invisibly.  Crashes are
#: injected from outside (SIGKILL) so the run controls *when*.
CHAOS_FAULTS = json.dumps({"seed": 7, "faults": [
    {"kind": "delay-read", "p": 0.03, "delay": 0.005},
    {"kind": "drop-connection", "p": 0.01},
]})


def run_chaos_churn(hotset, expected, processes, threads,
                    seconds) -> dict:
    """Zipf load over a supervised 2-shard cluster with seeded faults,
    while the run SIGKILLs a shard (auto-restart must bring it back)
    and churns membership (add-shard, then remove-shard).  Zero
    client-visible errors allowed."""
    mismatches: list = []
    events: list = []
    # ignore_cleanup_errors: a shard terminated a moment ago may still
    # be flushing a cache write while rmtree walks the directory.
    with tempfile.TemporaryDirectory(prefix="repro-chaos-",
                                     ignore_cleanup_errors=True) \
            as cache_dir:
        process, host, port = spawn_router(
            "--spawn", "2", "--cache-dir", cache_dir,
            "--max-memory-entries", "64", "--pool-size", "4",
            "--health-interval", "0.25", "--backoff", "0.02",
            "--down-after", "2", "--replicate", "2",
            "--restart-backoff", "0.2", "--breaker-deaths", "8",
            "--shard-faults", CHAOS_FAULTS)
        extra_process = None
        try:
            with ServeClient(host, port, timeout=600) as client:
                for job in hotset:
                    result = client.analyze(
                        source=job["source"], query=tuple(job["query"]),
                        input_types=job.get("input_types"),
                        payload=False)
                    if result["fingerprint"] != expected[job["base"]]:
                        mismatches.append(job["name"] + ":warm")
                stats = client.stats()
            shard_pids = {shard_id: shard["pid"]
                          for shard_id, shard in stats["shards"].items()
                          if isinstance(shard, dict) and "pid" in shard}
            victim = sorted(shard_pids)[0]
            # A third, standalone shard for the membership churn.
            extra_process, extra_host, extra_port = spawn_server(
                "--cache-dir", cache_dir, "--max-memory-entries", "64")
            extra_id = "%s:%d" % (extra_host, extra_port)

            def churn() -> None:
                print("  SIGKILL shard %s (pid %d) mid-run"
                      % (victim, shard_pids[victim]), file=sys.stderr)
                os.kill(shard_pids[victim], signal.SIGKILL)
                events.append({"event": "sigkill", "shard": victim})
                with ServeClient(host, port, timeout=60) as client:
                    deadline = time.time() + max(10.0, seconds / 2)
                    while time.time() < deadline:
                        info = client.router_info()
                        if (info["restarts"] >= 1 and
                                info["shards"][victim]["status"] == "up"):
                            break
                        time.sleep(0.2)
                    events.append({"event": "restart-observed",
                                   "restarts": info["restarts"]})
                    print("  shard %s auto-restarted (restarts=%d)"
                          % (victim, info["restarts"]), file=sys.stderr)
                    client.add_shard(extra_host, extra_port)
                    events.append({"event": "add-shard",
                                   "shard": extra_id})
                    print("  add-shard %s joined mid-run" % extra_id,
                          file=sys.stderr)
                    time.sleep(1.0)
                    client.remove_shard(extra_id)
                    events.append({"event": "remove-shard",
                                   "shard": extra_id})
                    print("  remove-shard %s drained out mid-run"
                          % extra_id, file=sys.stderr)

            weights = zipf_weights(len(hotset), 1.1)
            merged = run_load_workers(host, port, hotset, weights,
                                      processes, threads, seconds,
                                      mid_run=churn)
            _check_hotset_fingerprints(hotset, merged, expected,
                                       mismatches)
            with ServeClient(host, port, timeout=60) as client:
                info = client.router_info()
                stats = client.stats()
                client.shutdown()
            process.wait(timeout=60)
        except BaseException:
            process.terminate()
            raise
        finally:
            if extra_process is not None and extra_process.poll() is None:
                extra_process.terminate()
                try:
                    extra_process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    extra_process.kill()
    faults_injected: dict = {}
    for shard_stats in stats["shards"].values():
        for kind, count in ((shard_stats.get("faults") or {})
                            .get("injected", {})).items():
            faults_injected[kind] = faults_injected.get(kind, 0) + count
    return {
        "shard_faults": json.loads(CHAOS_FAULTS),
        "requests": merged["requests"],
        "requests_per_second": round(merged["requests"] / seconds, 2),
        "errors": merged["errors"],
        "latency": merged["latency"],
        "killed_shard": victim,
        "restarts": info["restarts"],
        "restart_failures": info["restart_failures"],
        "breaker_trips": info["breaker_trips"],
        "shards_added": info["shards_added"],
        "shards_removed": info["shards_removed"],
        "failovers": info["failovers"],
        "replications": info["replications"],
        "faults_injected_by_shards": faults_injected,
        "membership_log": info["membership_log"],
        "events": events,
        "mismatches": mismatches,
    }


def run_failover_ab(hotset, expected) -> dict:
    """Failover p95 with and without replication: warm a 2-shard
    cluster, SIGKILL the busier shard (restarts pushed out of the
    measurement window), wait for the router to mark it down, then
    time the *first touch* of every victim-owned key on the surviving
    replica.  --replicate 2 must beat --replicate 1: seeded memory
    beats disk-L2 promotion."""
    out: dict = {"mismatches": []}
    for replicate in (1, 2):
        with tempfile.TemporaryDirectory(prefix="repro-ab-",
                                         ignore_cleanup_errors=True) \
                as cache_dir:
            process, host, port = spawn_router(
                "--spawn", "2", "--cache-dir", cache_dir,
                "--max-memory-entries", "128", "--pool-size", "4",
                "--health-interval", "0.2", "--backoff", "0.02",
                "--down-after", "2", "--replicate", str(replicate),
                "--restart-backoff", "120")  # victim stays dead
            try:
                with ServeClient(host, port, timeout=600) as client:
                    homes: dict = {}
                    for job in hotset:
                        result = client.analyze(
                            source=job["source"],
                            query=tuple(job["query"]),
                            input_types=job.get("input_types"),
                            payload=False)
                        if result["fingerprint"] != \
                                expected[job["base"]]:
                            out["mismatches"].append(
                                job["name"] + ":ab-warm")
                        homes[job["name"]] = client.request(
                            "route", source=job["source"])["target"]
                    if replicate > 1:
                        deadline = time.time() + 20.0
                        while time.time() < deadline:
                            info = client.router_info()
                            if info["replications"] >= len(hotset):
                                break
                            time.sleep(0.1)
                    stats = client.stats()
                    shard_pids = {
                        shard_id: shard["pid"]
                        for shard_id, shard in stats["shards"].items()}
                    by_owner: dict = {}
                    for name, owner in homes.items():
                        by_owner[owner] = by_owner.get(owner, 0) + 1
                    victim = max(by_owner, key=by_owner.get)
                    victim_jobs = [job for job in hotset
                                   if homes[job["name"]] == victim]
                    os.kill(shard_pids[victim], signal.SIGKILL)
                    deadline = time.time() + 15.0
                    while time.time() < deadline:
                        info = client.router_info()
                        if info["shards"][victim]["status"] == "down":
                            break
                        time.sleep(0.05)
                    latencies = []
                    for job in victim_jobs:
                        begin = time.perf_counter()
                        result = client.analyze(
                            source=job["source"],
                            query=tuple(job["query"]),
                            input_types=job.get("input_types"),
                            payload=False)
                        latencies.append(time.perf_counter() - begin)
                        if result["fingerprint"] != \
                                expected[job["base"]]:
                            out["mismatches"].append(
                                job["name"] + ":ab-failover")
                        if not result["cached"]:
                            out["mismatches"].append(
                                job["name"] + ":ab-recomputed")
                    client.shutdown()
                process.wait(timeout=60)
            except BaseException:
                process.terminate()
                raise
        latencies.sort()
        p95 = latencies[min(len(latencies) - 1,
                            int(0.95 * len(latencies)))]
        out["replicate_%d" % replicate] = {
            "victim": victim,
            "victim_keys": len(victim_jobs),
            "first_touch_p50": round(
                latencies[len(latencies) // 2], 5),
            "first_touch_p95": round(p95, 5),
            "first_touch_mean": round(
                sum(latencies) / len(latencies), 5),
        }
        print("  replicate=%d: failover first-touch p95 %.2fms over "
              "%d keys" % (replicate, p95 * 1000.0, len(victim_jobs)),
              file=sys.stderr)
    with_r = out["replicate_2"]["first_touch_p95"]
    without_r = out["replicate_1"]["first_touch_p95"]
    out["p95_improvement"] = round(without_r / with_r, 2) if with_r \
        else None
    return out


def run_router_kill(hotset, expected, processes, threads,
                    seconds) -> dict:
    """PR 9: the front door itself dies.  A primary router (2 spawned
    shards, replicate 2) plus a standby syncing membership from it;
    load workers hold *both* endpoints.  Mid-run the primary is
    SIGKILLed: its shards survive as orphans, the standby promotes
    itself, and every worker fails over per request.  Zero
    client-visible errors allowed, every fingerprint intact."""
    mismatches: list = []
    shard_pids: dict = {}
    with tempfile.TemporaryDirectory(prefix="repro-rkill-",
                                     ignore_cleanup_errors=True) \
            as cache_dir:
        primary, host, port = spawn_router(
            "--spawn", "2", "--cache-dir", cache_dir,
            "--max-memory-entries", "64", "--pool-size", "4",
            "--health-interval", "0.25", "--backoff", "0.02",
            "--down-after", "2", "--replicate", "2")
        standby = None
        try:
            standby, standby_host, standby_port = spawn_router(
                "--cache-dir", cache_dir,
                "--sync-from", "%s:%d" % (host, port),
                "--health-interval", "0.25", "--backoff", "0.02",
                "--down-after", "2", "--replicate", "2")
            with ServeClient(host, port, timeout=600) as client:
                for job in hotset:
                    result = client.analyze(
                        source=job["source"], query=tuple(job["query"]),
                        input_types=job.get("input_types"),
                        payload=False)
                    if result["fingerprint"] != expected[job["base"]]:
                        mismatches.append(job["name"] + ":warm")
                stats = client.stats()
            shard_pids = {shard_id: shard["pid"]
                          for shard_id, shard in stats["shards"].items()
                          if isinstance(shard, dict) and "pid" in shard}
            # The standby must mirror the full ring before the primary
            # is allowed to die.
            with ServeClient(standby_host, standby_port,
                             timeout=60) as client:
                deadline = time.time() + 20.0
                while time.time() < deadline:
                    info = client.router_info()
                    if (info["sync_pulls"] >= 1
                            and len(info["shards"]) >= len(shard_pids)):
                        break
                    time.sleep(0.1)
                else:
                    raise RuntimeError(
                        "standby never mirrored the primary's ring: %r"
                        % info["shards"])
            print("  standby %s:%d mirrors %d shard(s)"
                  % (standby_host, standby_port, len(info["shards"])),
                  file=sys.stderr)

            def kill_primary() -> None:
                print("  SIGKILL primary router (pid %d) mid-run"
                      % primary.pid, file=sys.stderr)
                os.kill(primary.pid, signal.SIGKILL)

            weights = zipf_weights(len(hotset), 1.1)
            merged = run_load_workers(
                host, port, hotset, weights, processes, threads,
                seconds, mid_run=kill_primary,
                endpoints=[(host, port), (standby_host, standby_port)])
            _check_hotset_fingerprints(hotset, merged, expected,
                                       mismatches)
            primary.wait(timeout=30)
            with ServeClient(standby_host, standby_port,
                             timeout=60) as client:
                deadline = time.time() + 15.0
                while time.time() < deadline:
                    info = client.router_info()
                    if info["role"] == "primary":
                        break
                    time.sleep(0.1)
                client.shutdown()
            standby.wait(timeout=60)
        except BaseException:
            for process in (primary, standby):
                if process is not None and process.poll() is None:
                    process.terminate()
            raise
        finally:
            # The primary's spawned shards were orphaned by SIGKILL;
            # the standby never owned their processes.
            for pid in shard_pids.values():
                try:
                    os.kill(pid, signal.SIGTERM)
                except OSError:
                    pass
    return {
        "requests": merged["requests"],
        "requests_per_second": round(merged["requests"] / seconds, 2),
        "errors": merged["errors"],
        "latency": merged["latency"],
        "standby_promoted": info["role"] == "primary",
        "standby_sync_pulls": info["sync_pulls"],
        "standby_shards": {shard_id: shard["status"]
                           for shard_id, shard
                           in info["shards"].items()},
        "standby_failovers": info["failovers"],
        "mismatches": mismatches,
    }


def chaos_bench_main(args) -> int:
    base = args.hotset_base
    print("one-shot CLI baseline (%s)..." % base, file=sys.stderr)
    oneshot = run_oneshot_cli([base])
    expected = {base: oneshot["per_program"][base]["fingerprint"]}
    hotset = make_hotset(min(args.hotset_width, 32), base=base)
    seconds = max(14.0, args.seconds)
    processes = min(args.processes, 2)
    threads = max(1, args.clients // processes)

    print("chaos churn: %d clients, %.0fs, seeded shard faults, "
          "SIGKILL + membership churn mid-run..."
          % (processes * threads, seconds), file=sys.stderr)
    chaos = run_chaos_churn(hotset, expected, processes, threads,
                            seconds)

    print("failover A/B: --replicate 1 vs --replicate 2...",
          file=sys.stderr)
    ab = run_failover_ab(hotset, expected)

    print("router kill: primary + standby, SIGKILL the primary "
          "mid-run...", file=sys.stderr)
    router_kill = run_router_kill(hotset, expected, processes, threads,
                                  seconds)


    report = {
        "schema": SCHEMA,
        "mode": "chaos",
        "label": args.label,
        "python": platform.python_version(),
        "oneshot_cli": oneshot,
        "hotset": {"base": base, "programs": len(hotset),
                   "zipf_s": 1.1,
                   "clients": processes * threads,
                   "seconds": seconds},
        "chaos": chaos,
        "failover_ab": ab,
        "router_kill": router_kill,
        "fingerprint_mismatches": sorted(set(
            chaos["mismatches"] + ab["mismatches"]
            + router_kill["mismatches"])),
    }

    print("\nchaos run    : %d requests, %d errors, %7.1f req/s "
          "(p50=%ss p95=%ss)"
          % (chaos["requests"], len(chaos["errors"]),
             chaos["requests_per_second"],
             chaos["latency"]["p50"], chaos["latency"]["p95"]))
    print("self-healing : %d restart(s), %d add(s), %d remove(s), "
          "%d failover(s), %d replication(s)"
          % (chaos["restarts"], chaos["shards_added"],
             chaos["shards_removed"], chaos["failovers"],
             chaos["replications"]))
    print("shard faults : %s" % (chaos["faults_injected_by_shards"]
                                 or "none recorded"))
    print("failover p95 : %.2fms without replication, %.2fms with "
          "(x%.2f better)"
          % (ab["replicate_1"]["first_touch_p95"] * 1000.0,
             ab["replicate_2"]["first_touch_p95"] * 1000.0,
             ab["p95_improvement"]))
    print("router kill  : %d requests, %d errors, standby promoted=%s, "
          "%d sync pull(s)"
          % (router_kill["requests"], len(router_kill["errors"]),
             router_kill["standby_promoted"],
             router_kill["standby_sync_pulls"]))

    if args.write_bench:
        path = Path(args.write_bench)
        path.write_text(json.dumps(report, indent=2, sort_keys=True)
                        + "\n")
        print("wrote %s" % path, file=sys.stderr)

    problems = []
    if report["fingerprint_mismatches"]:
        problems.append("fingerprint mismatches: %s"
                        % report["fingerprint_mismatches"][:6])
    if chaos["errors"]:
        problems.append("chaos run had client-visible errors: %s"
                        % chaos["errors"][:3])
    if chaos["restarts"] < 1:
        problems.append("no successful auto-restart")
    if chaos["shards_added"] < 1 or chaos["shards_removed"] < 1:
        problems.append("membership churn did not complete")
    if ab["replicate_2"]["first_touch_p95"] >= \
            ab["replicate_1"]["first_touch_p95"]:
        problems.append(
            "replication did not improve failover p95 (%.2fms with "
            "vs %.2fms without)"
            % (ab["replicate_2"]["first_touch_p95"] * 1000.0,
               ab["replicate_1"]["first_touch_p95"] * 1000.0))
    if router_kill["errors"]:
        problems.append("router kill leaked client-visible errors: %s"
                        % router_kill["errors"][:3])
    if not router_kill["standby_promoted"]:
        problems.append("standby never promoted itself after the "
                        "primary died")
    for problem in problems:
        print("ERROR: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


def router_bench_main(args) -> int:
    programs = benchmark_names(include_variants=False)
    print("one-shot CLI baseline (%d programs)..." % len(programs),
          file=sys.stderr)
    oneshot = run_oneshot_cli(programs)

    print("Table-3 through the router...", file=sys.stderr)
    table3 = run_table3_through_router(programs, oneshot)

    hotset = make_hotset(args.hotset_width, base=args.hotset_base)
    expected = {args.hotset_base:
                oneshot["per_program"][args.hotset_base]["fingerprint"]}
    shard_counts = [int(c) for c in args.shard_counts.split(",")]
    scaling = run_router_scaling(shard_counts, hotset, expected,
                                 args.clients, args.processes,
                                 args.seconds, args.max_memory_entries)

    print("failover: 2 shards, shared L2, SIGKILL mid-run...",
          file=sys.stderr)
    failover = run_router_failover(hotset[:16], expected,
                                   processes=2, threads=4,
                                   seconds=max(6.0, args.seconds))

    sweep = scaling["sweep"]
    base_rate = sweep[str(shard_counts[0])]["requests_per_second"]
    speedups = {str(count): round(sweep[str(count)]
                                  ["requests_per_second"] / base_rate,
                                  2)
                for count in shard_counts}
    report = {
        "schema": SCHEMA,
        "mode": "router",
        "label": args.label,
        "python": platform.python_version(),
        "suite": list(programs),
        "oneshot_cli": oneshot,
        "router_table3": table3,
        "hotset": {
            "base": args.hotset_base,
            "programs": len(hotset),
            "zipf_s": 1.1,
            "max_memory_entries_per_shard": args.max_memory_entries,
            "clients": args.clients,
            "load_processes": args.processes,
            "seconds_per_point": args.seconds,
        },
        "scaling": {"shards": sweep, "speedup_vs_1": speedups},
        "failover": failover,
        "fingerprint_mismatches": sorted(set(
            table3["mismatches"] + scaling["mismatches"]
            + failover["mismatches"])),
    }

    print("\nscaling (hot set of %d programs, %d-entry shard caches):"
          % (len(hotset), args.max_memory_entries))
    for count in shard_counts:
        point = sweep[str(count)]
        print("  %d shard(s): %8.1f req/s  (x%.2f, hit rate %s, "
              "p50=%ss p95=%ss)"
              % (count, point["requests_per_second"],
                 speedups[str(count)], point["cache_hit_rate"],
                 point["latency"]["p50"], point["latency"]["p95"]))
    print("failover    : %d requests, %d errors, %d failovers, "
          "killed %s" % (failover["requests"], len(failover["errors"]),
                         failover["failovers"],
                         failover["killed_shard"]))

    if args.write_bench:
        path = Path(args.write_bench)
        path.write_text(json.dumps(report, indent=2, sort_keys=True)
                        + "\n")
        print("wrote %s" % path, file=sys.stderr)

    problems = []
    if report["fingerprint_mismatches"]:
        problems.append("fingerprint mismatches: %s"
                        % report["fingerprint_mismatches"][:6])
    for count, errors in ((c, sweep[str(c)]["errors"])
                          for c in shard_counts):
        if errors:
            problems.append("scaling@%d client failures: %s"
                            % (count, errors[:3]))
    if failover["errors"]:
        problems.append("failover lost requests: %s"
                        % failover["errors"][:3])
    if failover["failovers"] < 1:
        problems.append("failover phase never failed over")
    bars = {2: args.min_speedup_2, 4: args.min_speedup_4}
    for count, bar in bars.items():
        if str(count) in speedups and speedups[str(count)] < bar:
            problems.append("%d-shard speedup %.2fx under the %.1fx "
                            "bar" % (count, speedups[str(count)], bar))
    for problem in problems:
        print("ERROR: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark repro serve (and the repro router "
                    "cluster) against the one-shot CLI.")
    parser.add_argument("--mode", choices=("server", "router", "chaos"),
                        default="server",
                        help="'server': the PR 5 single-daemon phases; "
                             "'router': the PR 6 cluster phases; "
                             "'chaos': the PR 7/9 self-healing phases "
                             "(seeded faults, kill/restart, membership "
                             "churn, replication failover A/B, "
                             "primary-router kill with a standby)")
    parser.add_argument("--clients", type=int, default=32,
                        help="concurrent clients in the warm/coalescing "
                             "and scaling phases (default 32)")
    parser.add_argument("--rounds", type=int, default=4,
                        help="suite passes per client in the warm "
                             "phase (default 4)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required warm-server throughput multiple "
                             "over the one-shot CLI (default 5)")
    parser.add_argument("--label", default=None)
    parser.add_argument("--write-bench", metavar="FILE",
                        help="write the report as JSON")
    # router-mode knobs
    parser.add_argument("--shard-counts", default="1,2,4",
                        help="comma-separated shard counts for the "
                             "scaling sweep (default 1,2,4)")
    parser.add_argument("--processes", type=int, default=4,
                        help="load-generator worker processes "
                             "(default 4; threads = clients/processes)")
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="measured seconds per scaling point "
                             "(default 8)")
    parser.add_argument("--hotset-width", type=int, default=48,
                        help="distinct programs in the hot set "
                             "(default 48)")
    parser.add_argument("--hotset-base", default="QU",
                        help="benchmark the hot set derives from "
                             "(default QU)")
    parser.add_argument("--max-memory-entries", type=int, default=16,
                        help="per-shard in-memory cache entries in the "
                             "scaling sweep (default 16; the working "
                             "set must not fit in one shard)")
    parser.add_argument("--min-speedup-2", type=float, default=1.7,
                        help="required 2-shard speedup (default 1.7)")
    parser.add_argument("--min-speedup-4", type=float, default=3.0,
                        help="required 4-shard speedup (default 3.0)")
    parser.add_argument("--load-worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.load_worker:
        return load_worker_main()
    if args.mode == "router":
        return router_bench_main(args)
    if args.mode == "chaos":
        return chaos_bench_main(args)

    programs = benchmark_names(include_variants=False)
    print("one-shot CLI baseline (%d programs)..." % len(programs),
          file=sys.stderr)
    oneshot = run_oneshot_cli(programs)
    print("server phases (%d clients x %d rounds)..."
          % (args.clients, args.rounds), file=sys.stderr)
    server_report = run_server_phases(programs, args.clients,
                                      args.rounds, oneshot)

    warm = server_report["server_warm"]
    speedup = round(warm["requests_per_second"]
                    / oneshot["requests_per_second"], 2)
    report = {
        "schema": SCHEMA,
        "label": args.label,
        "python": platform.python_version(),
        "suite": list(programs),
        "oneshot_cli": oneshot,
        "warm_speedup_vs_oneshot": speedup,
        **server_report,
    }

    print("\none-shot CLI : %7.2f req/s (%d requests, %.2fs)"
          % (oneshot["requests_per_second"], oneshot["requests"],
             oneshot["total_seconds"]))
    print("warm server  : %7.2f req/s (%d clients, %d requests, "
          "%.2fs, p50=%ss p95=%ss)"
          % (warm["requests_per_second"], warm["clients"],
             warm["requests"], warm["total_seconds"],
             warm["latency"]["p50"], warm["latency"]["p95"]))
    print("speedup      : %7.2fx (bar: %.1fx)"
          % (speedup, args.min_speedup))
    coal = report["coalescing"]
    print("coalescing   : %d clients -> %d execution(s), %d riders"
          % (coal["clients"], coal["analyses_executed"],
             coal["coalesced"]))

    if args.write_bench:
        path = Path(args.write_bench)
        path.write_text(json.dumps(report, indent=2, sort_keys=True)
                        + "\n")
        print("wrote %s" % path, file=sys.stderr)

    problems = []
    if report["fingerprint_mismatches"]:
        problems.append("fingerprint mismatches: %s"
                        % report["fingerprint_mismatches"])
    if warm["failures"]:
        problems.append("client failures: %s" % warm["failures"][:3])
    if coal["failures"]:
        problems.append("coalescing client failures: %s"
                        % coal["failures"][:3])
    if coal["analyses_executed"] != 1:
        problems.append("coalescing ran %d analyses (expected 1)"
                        % coal["analyses_executed"])
    if speedup < args.min_speedup:
        problems.append("warm speedup %.2fx under the %.1fx bar"
                        % (speedup, args.min_speedup))
    for problem in problems:
        print("ERROR: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
