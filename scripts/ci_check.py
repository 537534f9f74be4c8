#!/usr/bin/env python
"""CI gates, one subcommand each.  Every expected analysis table comes
from ``perfbench/oracle.json``.

    python scripts/ci_check.py kernel       # REPRO_ARENA_KERNEL is active
    python scripts/ci_check.py table3       # Table-1 programs vs the oracle
    python scripts/ci_check.py service-cache  # warm batch cache >= 10x
    python scripts/ci_check.py selflint     # CHK: CLI == check op == slice op
    python scripts/ci_check.py server       # repro serve
    python scripts/ci_check.py cluster      # repro router --spawn 2
    python scripts/ci_check.py passthrough  # replicating router, payloads
    python scripts/ci_check.py chaos        # shard SIGKILL + membership churn
    python scripts/ci_check.py router-kill  # primary SIGKILL, standby promotes
    python scripts/ci_check.py history      # the frozen benchmark reports
    python perfbench/run.py ... | python scripts/ci_check.py perfbench-result

A gate prints one line and exits 0 when it holds, or prints what failed
and exits 1.  The smokes spawn their daemons through
``repro.service.client`` and delete their run directory first, so a
rerun starts as cold as a fresh checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.append(ROOT)

from perfbench.oracle import Oracle  # noqa: E402
from repro import analyze  # noqa: E402
from repro.benchprogs import benchmark  # noqa: E402
from repro.service.client import (ServeClient, _repro_env,  # noqa: E402
                                  spawn_router, spawn_server)
from repro.prolog.program import (FRONT_END_MEMO,  # noqa: E402
                                  parse_program)
from repro.service.serialize import (canonical_json,  # noqa: E402
                                     encode_result, payload_fingerprint,
                                     program_hash, result_fingerprint,
                                     result_head)
from repro.service.wire import encode_payload  # noqa: E402
from repro.typegraph import arena, opcache  # noqa: E402

ORACLE = Oracle()

#: The programs every smoke drives through the fleet.
SMOKE = ("QU", "RE", "PG")


class Failed(Exception):
    """A gate's condition does not hold."""


def require(condition, message: str, *args) -> None:
    if not condition:
        raise Failed(message % args if args else message)


def expect(result: dict, name: str, cached=None) -> dict:
    """The one fingerprint assertion: an analyze response carries the
    oracle's table for ``name`` (its payload too, when it has one) and,
    if ``cached`` is given, that cache state."""
    want = ORACLE.programs[name]["fingerprint"]
    require(result["fingerprint"] == want,
            "%s: fingerprint %s, the oracle has %s",
            name, result["fingerprint"], want)
    if "payload" in result:
        require(payload_fingerprint(result["payload"]) == want,
                "%s: payload fingerprint diverges from the oracle", name)
    if cached is not None:
        require(bool(result["cached"]) is cached,
                "%s: cached is %r", name, result["cached"])
    return result


def served(client: ServeClient, name: str, cached=None) -> dict:
    """Analyze benchmark ``name`` without its payload, then ``expect``."""
    return expect(client.analyze(benchmark=name, payload=False), name,
                  cached)


def wait_until(poll, done, timeout: float = 30.0):
    """Poll until ``done(value)`` holds or the timeout passes; returns
    the last value polled."""
    deadline = time.monotonic() + timeout
    value = poll()
    while not done(value) and time.monotonic() < deadline:
        time.sleep(0.2)
        value = poll()
    return value


class Fleet:
    """The daemons one smoke spawned.  Leaving the ``with`` block ends
    whichever still run, and any adopted shard pids."""

    def __init__(self, run_dir=None) -> None:
        self.processes = []
        self.pids = []
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    process.kill()
        for pid in self.pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except OSError:
                pass

    def spawn(self, spawner, *args):
        process, host, port = spawner(*args)
        self.processes.append(process)
        return process, host, port

    def stop(self, client: ServeClient, process) -> None:
        """Shut the daemon down through ``client``; it must exit 0."""
        client.shutdown()
        process.wait(timeout=60)
        require(process.returncode == 0,
                "daemon exited with %r", process.returncode)


# -- in-process gates ---------------------------------------------------------

def kernel() -> str:
    """The tier REPRO_ARENA_KERNEL asks for is the active one: a silent
    fallback would make a matrix row test nothing."""
    status = arena.kernel_status()
    want = os.environ.get("REPRO_ARENA_KERNEL")
    require(status["active"] == want,
            "requested tier %r but active is %r (%s)",
            want, status["active"], status["fallbacks"])
    return "arena kernel tier: %s" % status["active"]


def table_problems(oracle: Oracle, rows: dict) -> list:
    """How measured Table-1 rows (name -> fingerprint, procedure and
    clause iterations) differ from the oracle's."""
    problems = []
    for name in sorted(oracle.programs):
        if name not in rows:
            problems.append("%s: not measured" % name)
            continue
        row = rows[name]
        problems += oracle.check_table(name, {"stats": row},
                                       row["fingerprint"], None)
    return problems


def leaf_table_problems(payload: dict) -> list:
    """How a result payload breaks the one-leaf-table rule: a leaf
    value listed twice in ``leaves``, or a leaf node that holds a
    value inline instead of an index into ``leaves``."""
    counts = Counter(canonical_json(leaf) for leaf in payload["leaves"])
    problems = ["leaf %s is listed %d times" % (text[:60], count)
                for text, count in sorted(counts.items()) if count > 1]
    inline = sum(type(node[1]) is not int
                 for entry in payload["entries"]
                 for subst in (entry["beta_in"], entry["beta_out"])
                 if subst != "bottom"
                 for node in subst["nodes"] if node[0] == "l")
    if inline:
        problems.append("%d leaf nodes hold their value inline" % inline)
    return problems


#: Payload stats a warm re-analysis may change: timing, and the memo
#: and arena counters (a warm process finds what a cold one computes).
WARM_VARIANT_STATS = ("cpu_time", "opcache_hits", "opcache_misses",
                      "arena_compiles")


def warm_problems(name: str, cold: dict, warm: dict) -> list:
    """How a warm re-analysis payload differs from the cold one in
    anything but the stats of :data:`WARM_VARIANT_STATS`."""
    problems = ["%s: warm %s differs" % (name, field)
                for field in sorted(set(cold) | set(warm))
                if field != "stats" and cold.get(field) != warm.get(field)]
    for stat in sorted(set(cold["stats"]) | set(warm["stats"])):
        if stat not in WARM_VARIANT_STATS and \
                cold["stats"].get(stat) != warm["stats"].get(stat):
            problems.append("%s: warm %s %r, cold %r" % (
                name, stat, warm["stats"].get(stat),
                cold["stats"].get(stat)))
    return problems


def table3() -> str:
    """All 10 Table-1 programs, analysed in-process on the active tier,
    give the oracle's fingerprints and iteration counts, without ever
    loading the Grammar-level references (they are test oracles only;
    a production path that reached them would be a second path).  The
    served encoding of each result, built from the payload's head as
    an executor builds it, is the CLI's canonical JSON, and its
    fingerprint is the oracle's too; each payload lists every leaf
    value once and references it by index.

    Then each program is analysed again in the same process twice, as
    served edits are: once with an uncalled fact appended, and once
    with an uncalled fact holding an anonymous variable prepended,
    which moves every line and renumbers every anonymous variable.
    Both warm passes must equal the oracle too, and their payloads
    must equal the cold one apart from timing and cache counters.
    The clause memo must have served the first, and the front-end
    memo both; the second's program hash must equal the one computed
    again after every memo is cleared."""
    rows = {}
    cold = {}
    for name in ORACLE.programs:
        program = benchmark(name)
        analysis = analyze(program.source, program.query,
                           input_types=program.input_types)
        payload = encode_result(analysis.result)
        problems = leaf_table_problems(payload)
        require(not problems, "%s: %s", name, "; ".join(problems))
        encoded = encode_payload(analysis.result,
                                 result_head(analysis.result))
        require(encoded.wire == canonical_json(payload).encode("utf-8"),
                "%s: the served bytes differ from the canonical JSON", name)
        want = ORACLE.programs[name]["fingerprint"]
        require(encoded.fingerprint == want,
                "%s: encoded fingerprint %s, the oracle has %s", name,
                encoded.fingerprint, want)
        rows[name] = table_row(analysis)
        cold[name] = payload
    problems = table_problems(ORACLE, rows)
    require(not problems, "; ".join(problems))
    memo = opcache.cache_for("clause")
    hits = memo.hits
    front_end_hits = FRONT_END_MEMO.hits
    edits = (("appended", lambda name, source: source.rstrip("\n")
              + "\nzz_ci_edit_%s(1).\n" % name.lower()),
             ("prepended", lambda name, source:
              "zz_ci_first_%s(_).\n" % name.lower() + source))
    hashes = {}
    for edit, edited in edits:
        warm_rows = {}
        for name in ORACLE.programs:
            program = benchmark(name)
            source = edited(name, program.source)
            parsed = parse_program(source)
            hashes[name] = (source, program_hash(parsed))
            analysis = analyze(parsed, program.query,
                               input_types=program.input_types)
            warm_rows[name] = table_row(analysis)
            problems += ["%s %s" % (edit, problem) for problem in
                         warm_problems(name, cold[name],
                                       encode_result(analysis.result))]
        problems += ["warm %s %s" % (edit, problem)
                     for problem in table_problems(ORACLE, warm_rows)]
        if edit == "appended":
            clause_hits = memo.hits - hits
    require(not problems, "; ".join(problems))
    require(clause_hits, "the warm pass had no clause memo hits")
    front_end_hits = FRONT_END_MEMO.hits - front_end_hits
    require(front_end_hits, "the warm passes had no front-end memo hits")
    opcache.clear()
    for name, (source, digest) in sorted(hashes.items()):
        again = program_hash(parse_program(source))
        require(again == digest, "%s: prepended program hash %s, %s after "
                "the memos are cleared", name, digest, again)
    require("repro.typegraph.reference" not in sys.modules,
            "the analyses loaded repro.typegraph.reference")
    return ("table3: %d programs equal the oracle on the %s tier, cold "
            "and after two edits (%d clause memo hits, %d front-end memo "
            "hits warm)" % (len(rows), arena.kernel(), clause_hits,
                            front_end_hits))


def table_row(analysis) -> dict:
    return {
        "fingerprint": result_fingerprint(analysis.result),
        "procedure_iterations": analysis.stats.procedure_iterations,
        "clause_iterations": analysis.stats.clause_iterations,
    }


def service_cache() -> str:
    """``benchmarks/bench_service_cache.py``'s warm-cache gate: a
    batch over the benchmark corpus served from the disk store and
    from the memory LRU is at least 10x faster than the cold pass."""
    test = ("benchmarks/bench_service_cache.py::"
            "test_warm_cache_is_10x_faster_than_cold")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--import-mode=importlib", test],
        cwd=ROOT, env=_repro_env(), capture_output=True, text=True)
    require(done.returncode == 0, "%s failed:\n%s", test,
            done.stdout[-3000:])
    return "service-cache: the warm batch is at least 10x faster than cold"


def perfbench_ok(result: dict) -> bool:
    return result.get("correct") is True and result.get("failed") == 0


def perfbench_result() -> str:
    """Echo a ``perfbench/run.py`` run from stdin; its last line must
    report ``"correct": true`` and ``"failed": 0``."""
    last = ""
    for line in sys.stdin:
        sys.stdout.write(line)
        last = line.strip() or last
    require(last.startswith("{"), "perfbench printed no result line")
    result = json.loads(last)
    require(perfbench_ok(result), "perfbench: correct=%r failed=%r of %r",
            result.get("correct"), result.get("failed"),
            result.get("attempted"))
    return "perfbench: %d operations, all correct" % result["attempted"]


# -- fleet smokes -------------------------------------------------------------

def selflint() -> str:
    """CHK ships one deliberately violated assertion.  The one-shot CLI
    exits with the oracle's code and verdicts and a blame slice naming
    the guilty clause; a verified program exits 0; a router's check and
    slice ops return the CLI's verdicts and slices bit-identical."""
    def repro_check(*args):
        return subprocess.run([sys.executable, "-m", "repro", "check"]
                              + list(args), capture_output=True, text=True,
                              env=_repro_env())

    chk = ORACLE.chk
    proc = repro_check("--benchmark", "CHK", "--json")
    require(proc.returncode == chk["exit_code"],
            "repro check CHK exited %r: %s", proc.returncode, proc.stderr)
    cli = json.loads(proc.stdout)
    verdicts, slices = cli["check"]["verdicts"], cli["check"]["slices"]
    problems = ORACLE.check_verdicts(verdicts)
    require(not problems, "; ".join(problems))
    require(cli["passed"] is False, "CHK passed")
    [guilty] = chk["violated"]
    require(len(slices) == 1 and any(
        step["role"] == "clause" and step["pred"] == guilty
        and step["clause"] == 0 for step in slices[0]["steps"]),
        "no single blame slice names clause 0 of %s: %r", guilty, slices)
    with tempfile.TemporaryDirectory() as tmp:
        clean = os.path.join(tmp, "clean.pl")
        with open(clean, "w") as handle:
            handle.write(":- assert_pattern(p/1, [atom(a)]).\np(a).\n")
        ok = repro_check(clean, "p/1")
    require(ok.returncode == 0, "a verified program exited %r: %s",
            ok.returncode, ok.stdout)
    with Fleet() as fleet:
        process, host, port = fleet.spawn(spawn_router, "--spawn", "2")
        with ServeClient(host, port) as client:
            check = client.check(benchmark="CHK")
            sliced = client.slice(benchmark="CHK")
            require(check["passed"] is False, "served CHK passed")
            for reply, field, want in ((check, "verdicts", verdicts),
                                       (sliced, "slices", slices)):
                require(reply["check_fingerprint"]
                        == cli["check_fingerprint"],
                        "served %s: check fingerprint differs", field)
                require(reply[field] == want,
                        "served %s differ from the CLI's", field)
            fleet.stop(client, process)
    return ("selflint: CLI exit codes correct; verdicts identical "
            "CLI == check op == slice op through the router")


def server() -> str:
    """``repro serve`` returns the oracle's tables, repeats from its
    cache, and re-analyses cache-missing RE edits on warm memos whose
    sizes stop growing."""
    with Fleet() as fleet:
        process, host, port = fleet.spawn(spawn_server, "--timeout", "120")
        with ServeClient(host, port) as client:
            for name in ("QU", "RE"):
                served(client, name)
                served(client, name, cached=True)
            executed = client.stats()["analyses_executed"]
            require(executed == 2, "analyses_executed %r", executed)
            # Appending an uncalled fact misses the result cache but
            # re-analyses RE on the warm memos alone.
            program = benchmark("RE")
            sizes = []
            for k in range(3):
                expect(client.analyze(
                    source=program.source + "\nci_edit_%d(a).\n" % k,
                    query=program.query, input_types=program.input_types,
                    payload=False), "RE", cached=False)
                sizes.append(client.stats()["heap"]["opcache"])
            require(sizes[1] == sizes[2], "memo tables grew: %r", sizes)
            fleet.stop(client, process)
    return ("server: fingerprints equal the oracle; warm RE edits reuse "
            "every memo")


def cluster() -> str:
    """A router over two spawned shards sharing a disk cache is
    invisible to results; each program has a home shard."""
    with Fleet(".ci-cluster-cache") as fleet:
        process, host, port = fleet.spawn(
            spawn_router, "--spawn", "2", "--cache-dir", ".ci-cluster-cache")
        with ServeClient(host, port) as client:
            homes = set()
            for name in ("QU", "RE"):
                served(client, name)
                served(client, name, cached=True)
                homes.add(client.request("route", benchmark=name)["target"])
            merged = client.stats()["merged"]
            require(merged["analyses_executed"] == 2,
                    "analyses_executed %r", merged["analyses_executed"])
            require(merged["shards_up"] == 2, "shards_up %r",
                    merged["shards_up"])
            shards = client.router_info()["shards"]
            require(len(shards) == 2, "router lists %r", sorted(shards))
            fleet.stop(client, process)
    return "cluster: fingerprints equal the oracle; homes=%s" % sorted(homes)


def passthrough() -> str:
    """A replicating router forwards cached responses as bytes: whole
    payloads read twice keep the oracle's tables, repeat identically,
    and each fresh result is replicated exactly once."""
    with Fleet() as fleet:
        process, host, port = fleet.spawn(
            spawn_router, "--spawn", "2", "--replicate", "2")
        with ServeClient(host, port) as client:
            for name in ("QU", "RE"):
                first = expect(client.analyze(benchmark=name), name,
                               cached=False)
                repeat = expect(client.analyze(benchmark=name), name,
                                cached=True)
                require(repeat["payload"] == first["payload"],
                        "%s: cached payload differs", name)
            # replication runs in the background: wait it out
            router = wait_until(lambda: client.stats()["router"],
                                lambda router: router["replications"] >= 2)
            require(router["replications"] == 2, "replications %r",
                    router["replications"])
            fleet.stop(client, process)
    return "passthrough: fingerprints equal the oracle; replications=2"


def chaos() -> str:
    """Under a seeded fault plan, one SIGKILLed shard is restarted and
    one shard is added and removed, with every table still the
    oracle's."""
    faults = json.dumps({"seed": 3, "faults": [
        {"kind": "delay-read", "p": 0.05, "delay": 0.002}]})
    with Fleet(".ci-chaos-cache") as fleet:
        process, host, port = fleet.spawn(
            spawn_router, "--spawn", "2", "--cache-dir", ".ci-chaos-cache",
            "--replicate", "2", "--health-interval", "0.25",
            "--down-after", "2", "--backoff", "0.02",
            "--restart-backoff", "0.2", "--shard-faults", faults)
        with ServeClient(host, port, timeout=120) as client:
            for name in SMOKE:
                served(client, name)
            shards = client.stats()["shards"]
            victim = sorted(shards)[0]
            os.kill(shards[victim]["pid"], signal.SIGKILL)
            info = wait_until(client.router_info, lambda info: (
                info["restarts"] >= 1
                and info["shards"][victim]["status"] == "up"))
            require(info["restarts"] >= 1, "no restart: %r", info)
            _, extra_host, extra_port = fleet.spawn(
                spawn_server, "--cache-dir", ".ci-chaos-cache")
            client.add_shard(extra_host, extra_port)
            extra = "%s:%d" % (extra_host, extra_port)
            for name in SMOKE:
                served(client, name, cached=True)
            client.remove_shard(extra)
            info = client.router_info()
            require(info["shards_added"] == 1 and info["shards_removed"] == 1
                    and extra not in info["ring"],
                    "membership churn not recorded: %r", info)
            fleet.stop(client, process)
    return "chaos: restart and membership churn; fingerprints equal the oracle"


def router_kill() -> str:
    """A client holding a primary and a standby router sees zero errors
    when the primary is SIGKILLed; the standby promotes itself."""
    common = ("--cache-dir", ".ci-ha-cache", "--replicate", "2",
              "--health-interval", "0.25", "--down-after", "2",
              "--backoff", "0.02")
    with Fleet(".ci-ha-cache") as fleet:
        primary, host, port = fleet.spawn(
            spawn_router, "--spawn", "2", *common)
        standby, sb_host, sb_port = fleet.spawn(
            spawn_router, "--sync-from", "%s:%d" % (host, port), *common)
        with ServeClient(endpoints=[(host, port), (sb_host, sb_port)],
                         timeout=120) as client:
            for name in SMOKE:
                served(client, name)
            fleet.pids += [shard["pid"] for shard
                           in client.stats()["shards"].values()]
            # the standby must mirror the ring before the kill
            with ServeClient(sb_host, sb_port, timeout=60) as sb:
                info = wait_until(sb.router_info, lambda info: (
                    info["sync_pulls"] >= 1 and len(info["shards"]) == 2))
            require(len(info["shards"]) == 2, "standby ring %r", info)
            os.kill(primary.pid, signal.SIGKILL)
            primary.wait(timeout=30)
            # the same client keeps succeeding through the standby
            for _ in range(3):
                for name in SMOKE:
                    served(client, name, cached=True)
            require((client.host, client.port) == (sb_host, sb_port),
                    "client never failed over")
            info = wait_until(client.router_info,
                              lambda info: info["role"] == "primary")
            require(info["role"] == "primary"
                    and info["primary_reachable"] is False,
                    "standby not promoted: %r", info)
            fleet.stop(client, standby)
    return ("router-kill: standby promoted, zero client-visible errors, "
            "fingerprints equal the oracle")


# -- history ------------------------------------------------------------------

def load_history() -> dict:
    """The frozen benchmark reports, keyed by the PR that wrote them."""
    history = {}
    for pr in range(2, 10):
        with open(os.path.join(ROOT, "BENCH_pr%d.json" % pr)) as handle:
            history[pr] = json.load(handle)
    return history


def table_rows(section: dict) -> dict:
    """A report's table section as ``table_problems`` rows."""
    return {name: dict(row, fingerprint=row["table_fingerprint"])
            for name, row in section["programs"].items()}


def history_problems(history: dict, oracle: Oracle) -> list:
    """The conditions the frozen reports must keep: the oracle is PR 4's
    table, every table section has the oracle's fingerprints, the
    native tier is >= 3x PR 4, and the service reports record no
    error, mismatch or missed restart."""
    problems = []

    def check(ok, pr, what, *args):
        if not ok:
            problems.append("BENCH_pr%d.json: %s" % (pr, what % args))

    def diverged(new, old):
        return sorted(name for name in new if name in old
                      and new[name]["fingerprint"] != old[name]["fingerprint"])

    drift = table_problems(oracle, table_rows(history[4]["current"]))
    check(not drift, 4, "current table differs from the oracle: %s", drift)
    tables = {(pr, section): table_rows(history[pr][section])
              for pr in (2, 3, 4, 8) for section in ("baseline", "current")}
    for (pr, section), rows in sorted(tables.items()):
        bad = diverged(rows, oracle.programs)
        check(not bad, pr, "%s fingerprints diverge from the oracle: %s",
              section, bad)
    for section in ("baseline", "current"):
        bad = diverged(tables[4, section], tables[3, "current"])
        check(not bad, 4, "%s fingerprints diverge from PR 3: %s",
              section, bad)
    pr4, pr8 = tables[4, "current"], tables[8, "current"]
    missing = sorted(set(pr4) - set(pr8))
    check(not missing, 8, "programs missing: %s", missing)
    bad = diverged(pr8, pr4)
    check(not bad, 8, "fingerprints diverge from PR 4: %s", bad)
    speedup = (sum(row["wall_time"] for row in pr4.values())
               / sum(row["wall_time"] for row in pr8.values()))
    check(speedup >= 3.0, 8, "aggregate speedup %.2fx < 3x", speedup)

    server = history[5]
    check(server["server_warm"]["fingerprints_identical"]
          and not server.get("fingerprint_mismatches")
          and server["coalescing"]["analyses_executed"] == 1,
          5, "fingerprint or coalescing failures")
    router, failover = history[6], history[6]["failover"]
    check(not router.get("fingerprint_mismatches")
          and not any(point["errors"] for point
                      in router["scaling"]["shards"].values())
          and not failover["errors"] and failover["failovers"] >= 1,
          6, "fingerprint, failover or load failures")
    for pr in (7, 9):
        report = history[pr]
        chaos, ab = report["chaos"], report["failover_ab"]
        check(not report.get("fingerprint_mismatches")
              and not chaos["errors"] and chaos["restarts"] >= 1
              and chaos["shards_added"] >= 1
              and chaos["shards_removed"] >= 1,
              pr, "chaos errors, mismatches or missing restarts")
        check(ab["replicate_2"]["first_touch_p95"]
              < ab["replicate_1"]["first_touch_p95"],
              pr, "replication did not improve failover p95")
        kill = report.get("router_kill")
        check(kill is None or (not kill["errors"]
                               and kill["standby_promoted"]),
              pr, "router kill errors or no promotion")
        repair = report.get("anti_entropy_ab")
        check(repair is None or (
            repair["anti_entropy_on"]["anti_entropy_repairs"] >= 1
            and repair["anti_entropy_on"]["first_touch_p95"]
            < repair["anti_entropy_off"]["first_touch_p95"]),
            pr, "anti-entropy did not repair or improve p95")
    return problems


def history() -> str:
    """The frozen benchmark reports still meet their pass conditions."""
    problems = history_problems(load_history(), ORACLE)
    require(not problems, "; ".join(problems))
    return "history: the frozen benchmark reports hold"


GATES = {gate.__name__.replace("_", "-"): gate for gate in (
    kernel, table3, service_cache, perfbench_result, selflint, server,
    cluster, passthrough, chaos, router_kill, history)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("gate", choices=sorted(GATES))
    args = parser.parse_args(argv)
    try:
        print(GATES[args.gate]())
    except Failed as failure:
        print("FAIL %s: %s" % (args.gate, failure), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
