"""Checkout layout, child-process environment, kernel build, and
process helpers shared by the workloads.

The benchmark runs from the root of a source checkout and writes only
under its build directory (``$CARGO_TARGET_DIR``, default
``.bench_build``): the C kernel cache and one directory per run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


class BenchError(RuntimeError):
    """A condition under which the run must stop without a result."""


def build_dir() -> str:
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build")


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError("no src/repro under %s: run from the root of a "
                         "source checkout" % ROOT)


def kernel_cache() -> str:
    return os.path.join(build_dir(), "kernels")


def configure_environment() -> None:
    """Point this process, and every child it starts, at the checkout's
    sources and the benchmark's own kernel cache, with the native
    kernel tier requested and no inherited ``REPRO_*`` setting (fault
    plans, tier overrides) left over."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["PYTHONPATH"] = SRC
    os.environ["REPRO_KERNEL_CACHE"] = kernel_cache()
    os.environ["REPRO_ARENA_KERNEL"] = "native"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


_PROBE = ("import time; t = time.perf_counter(); import repro; "
          "from repro.typegraph import arena; k = arena.kernel(); "
          "print(k, time.perf_counter() - t)")


def probe(cache: Optional[str] = None) -> Tuple[str, float, float]:
    """Start an interpreter that imports repro and loads the kernel
    tier: (tier, import seconds, process wall seconds).  ``cache``
    overrides the kernel cache directory."""
    env = dict(os.environ)
    if cache is not None:
        env["REPRO_KERNEL_CACHE"] = cache
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError("import probe failed: %s"
                         % proc.stderr.strip()[-400:])
    tier, seconds = proc.stdout.split()
    return tier, float(seconds), wall


def ensure_kernel() -> None:
    """Build the C kernel into the benchmark's own cache, once per
    build directory and before anything is timed, and abort unless the
    native tier loads: ``auto`` would fall back to the numpy tier,
    several times slower, without a word."""
    tier, _, _ = probe()
    if tier != "native":
        raise BenchError("native kernel tier did not load (active tier: "
                         "%s); see REPRO_KERNEL_CC" % tier)


def kernel_build_s(directory: str) -> float:
    """Seconds one C kernel build takes: a first import with an empty
    kernel cache, minus a second one that finds the build."""
    _, _, cold = probe(directory)
    _, _, warm = probe(directory)
    return cold - warm


def new_run_dir(workload: str) -> str:
    path = os.path.join(build_dir(), "runs",
                        "%s-%d-%d" % (workload, os.getpid(),
                                      time.time_ns()))
    os.makedirs(path)
    return path


def interpreter_start_s() -> float:
    """Wall time of a bare ``python -c pass``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   timeout=60)
    return time.perf_counter() - start


def run_cli(argv: List[str], stderr_path: str, timeout: float
            ) -> Tuple[int, bytes, float, float, float]:
    """One fresh ``python -m repro`` process: (exit code, stdout,
    spawn time, exit time, peak resident MiB).  The timer covers spawn
    to reaped exit, with the whole output read, which is what a CLI
    caller waits."""
    with open(stderr_path, "ab") as errors:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "repro"] + argv,
                                stdout=subprocess.PIPE, stderr=errors)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
        end = time.perf_counter()
    return proc.returncode, out, start, end, usage.ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def _state(pid: int) -> Optional[tuple]:
    """(parent pid, state letter) of a live process, or None."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(fields[1]), fields[0]


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` (a router's shards)."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            state = _state(int(entry))
            if state is not None:
                children.setdefault(state[0], []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def stop_strays(pids: List[int], timeout: float = 10.0) -> None:
    """Make sure processes a daemon should have stopped are gone:
    terminate what is left, kill it if it lingers, and wait until
    none is running."""
    def running():
        return [pid for pid in pids
                if (_state(pid) or (0, "Z"))[1] not in "ZX"]

    for signum in (signal.SIGTERM, signal.SIGKILL):
        for pid in running():
            try:
                os.kill(pid, signum)
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        while running() and time.monotonic() < deadline:
            time.sleep(0.05)
        if not running():
            return
    raise BenchError("processes %s did not stop" % running())


def stop_process(proc: Optional[subprocess.Popen],
                 timeout: float = 20.0) -> None:
    """Wait for a daemon asked to shut down; kill it if it lingers."""
    if proc is None:
        return
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=timeout)
