"""Tests for the content-addressed result cache."""

import json

import pytest

from repro import AnalysisConfig, analyze
from repro.service.cache import ResultCache, make_key
from repro.service.serialize import encode_result, program_hash


@pytest.fixture
def payload(append_source):
    return encode_result(analyze(append_source, ("append", 3)).result)


def test_memory_get_put(append_source, payload):
    cache = ResultCache()
    key = make_key(append_source, ("append", 3))
    assert cache.get(key) is None
    cache.put(key, payload)
    assert cache.get(key) == payload
    assert cache.stats.misses == 1
    assert cache.stats.memory_hits == 1


def test_key_components_distinguish(append_source):
    base = make_key(append_source, ("append", 3))
    assert base == make_key(append_source, ("append", 3))
    assert base != make_key(append_source, ("append", 3),
                            input_types=["list", "any", "any"])
    assert base != make_key(append_source, ("append", 3),
                            config=AnalysisConfig(max_or_width=2))
    assert base != make_key(append_source, ("append", 3), baseline=True)
    assert base != make_key(append_source + "\nq(a).\n", ("append", 3))
    assert base.digest != make_key(append_source, ("append", 3),
                                   baseline=True).digest


def test_disk_persistence(tmp_path, append_source, payload):
    key = make_key(append_source, ("append", 3))
    writer = ResultCache(tmp_path)
    writer.put(key, payload)
    reader = ResultCache(tmp_path)
    assert reader.get(key) == payload
    assert reader.stats.disk_hits == 1
    # a second read is served from memory
    assert reader.get(key) == payload
    assert reader.stats.memory_hits == 1


def test_lru_eviction(append_source, payload):
    cache = ResultCache(max_memory_entries=2)
    keys = [make_key(append_source + "\np%d(a).\n" % i, ("append", 3))
            for i in range(3)]
    for key in keys:
        cache.put(key, payload)
    assert cache.stats.evictions == 1
    assert cache.get(keys[0]) is None  # oldest evicted
    assert cache.get(keys[1]) == payload
    assert cache.get(keys[2]) == payload


def test_lru_eviction_keeps_recently_used(append_source, payload):
    cache = ResultCache(max_memory_entries=2)
    keys = [make_key(append_source + "\np%d(a).\n" % i, ("append", 3))
            for i in range(3)]
    cache.put(keys[0], payload)
    cache.put(keys[1], payload)
    cache.get(keys[0])  # refresh 0 so 1 is the LRU victim
    cache.put(keys[2], payload)
    assert cache.get(keys[0]) == payload
    assert cache.get(keys[1]) is None


def test_disk_backs_memory_eviction(tmp_path, append_source, payload):
    cache = ResultCache(tmp_path, max_memory_entries=1)
    keys = [make_key(append_source + "\np%d(a).\n" % i, ("append", 3))
            for i in range(2)]
    cache.put(keys[0], payload)
    cache.put(keys[1], payload)  # evicts keys[0] from memory
    assert cache.get(keys[0]) == payload  # served from disk
    assert cache.stats.disk_hits == 1


def test_entries_for_program(tmp_path, append_source, payload):
    cache = ResultCache(tmp_path)
    key1 = make_key(append_source, ("append", 3))
    key2 = make_key(append_source, ("append", 3),
                    config=AnalysisConfig(max_or_width=5))
    other = make_key(append_source + "\nq(a).\n", ("append", 3))
    for key in (key1, key2, other):
        cache.put(key, payload)
    prog_hash = program_hash(append_source)
    keys = cache.keys_for_program(prog_hash)
    assert sorted(k.digest for k in keys) == \
        sorted([key1.digest, key2.digest])
    assert len(cache.keys_for_program(other.program_hash)) == 1


def test_invalidate(tmp_path, append_source, payload):
    cache = ResultCache(tmp_path)
    key = make_key(append_source, ("append", 3))
    cache.put(key, payload)
    assert cache.invalidate(key)
    assert cache.get(key) is None
    assert not cache.invalidate(key)
    # the disk copy is gone too
    assert ResultCache(tmp_path).get(key) is None


def test_invalidate_program(tmp_path, append_source, payload):
    cache = ResultCache(tmp_path)
    key1 = make_key(append_source, ("append", 3))
    key2 = make_key(append_source, ("append", 3), baseline=True)
    other = make_key(append_source + "\nq(a).\n", ("append", 3))
    for key in (key1, key2, other):
        cache.put(key, payload)
    assert cache.invalidate_program(key1.program_hash) == 2
    assert cache.get(key1) is None
    assert cache.get(key2) is None
    assert cache.get(other) == payload


def test_clear_and_len(tmp_path, append_source, payload):
    cache = ResultCache(tmp_path)
    cache.put(make_key(append_source, ("append", 3)), payload)
    cache.put(make_key(append_source, ("append", 3), baseline=True),
              payload)
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0
    assert len(ResultCache(tmp_path)) == 0


@pytest.mark.parametrize("record", ["not-json", "no-payload", "not-object"])
def test_corrupt_disk_entry_is_a_miss(tmp_path, append_source, payload,
                                      record):
    cache = ResultCache(tmp_path)
    key = make_key(append_source, ("append", 3))
    cache.put(key, payload)
    path = cache._entry_path(key)
    with open(path, "w") as handle:
        if record == "not-json":
            handle.write("{not json")
        elif record == "no-payload":  # valid JSON, no payload
            json.dump({"key": key.to_obj()}, handle)
        else:
            handle.write("5")
    fresh = ResultCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.keys_for_program(key.program_hash) == []


def test_rejects_zero_capacity():
    with pytest.raises(ValueError):
        ResultCache(max_memory_entries=0)


# -- concurrency (PR 5) ------------------------------------------------------
#
# The server hangs many threads off one ResultCache instance and many
# *processes* off one cache_dir; these tests hammer both axes and
# assert no torn records, no crashes, and only complete payloads.

import multiprocessing
import os
import threading

from repro.service.cache import CacheKey


def _mp_context():
    # fork keeps the workers cheap and lets them share the test's
    # helpers without pickling; all CI platforms here are POSIX.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def _keys_for(source, n):
    return [make_key(source + "\nextra%d(a)." % i, ("append", 3))
            for i in range(n)]


def _hammer_process(cache_dir, source, payload, worker, iterations,
                    failures):
    """Writer+reader+invalidator loop; reports failures via a queue."""
    try:
        cache = ResultCache(cache_dir, max_memory_entries=4)
        keys = _keys_for(source, 6)
        for i in range(iterations):
            key = keys[(i + worker) % len(keys)]
            cache.put(key, payload)
            observed = cache.get(keys[i % len(keys)])
            if observed is not None and observed != payload:
                failures.put("torn payload at worker %d iter %d"
                             % (worker, i))
                return
            if i % 7 == worker % 7:
                cache.invalidate_program(key.program_hash)
            if i % 11 == worker % 11:
                len(cache)  # concurrent directory scans
    except BaseException as error:  # pragma: no cover - failure path
        failures.put("worker %d crashed: %r" % (worker, error))


def test_multiprocess_writers_readers_invalidators(tmp_path,
                                                   append_source,
                                                   payload):
    context = _mp_context()
    failures = context.Queue()
    workers = [
        context.Process(target=_hammer_process,
                        args=(str(tmp_path), append_source, payload,
                              worker, 120, failures))
        for worker in range(4)
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=120)
        assert process.exitcode == 0
    assert failures.empty(), failures.get()
    # the store is still fully readable afterwards
    cache = ResultCache(tmp_path)
    for key in _keys_for(append_source, 6):
        observed = cache.get(key)
        assert observed is None or observed == payload


def test_thread_safety_of_one_instance(tmp_path, append_source,
                                       payload):
    cache = ResultCache(tmp_path, max_memory_entries=3)
    keys = _keys_for(append_source, 5)
    errors = []

    def hammer(worker):
        try:
            for i in range(150):
                key = keys[(i + worker) % len(keys)]
                cache.put(key, payload)
                observed = cache.get(keys[i % len(keys)])
                assert observed is None or observed == payload
                if i % 13 == worker:
                    cache.invalidate(key)
                if i % 17 == worker:
                    cache.keys_for_program(key.program_hash)
        except BaseException as error:  # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(w,))
               for w in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    stats = cache.stats
    assert stats.puts == 8 * 150


def test_put_survives_concurrent_program_invalidation(tmp_path,
                                                      append_source,
                                                      payload):
    """A put whose program directory is removed mid-write recreates it
    (the retry path) instead of crashing."""
    cache = ResultCache(tmp_path)
    key = make_key(append_source, ("append", 3))
    cache.put(key, payload)
    # simulate the other process: drop the whole program directory
    import shutil
    shutil.rmtree(cache._program_dir(key.program_hash))
    cache.put(key, payload)
    assert ResultCache(tmp_path).get(key) == payload


def test_flush_writes_memory_entries_to_disk(tmp_path, append_source,
                                             payload):
    cache = ResultCache(tmp_path)
    key = make_key(append_source, ("append", 3))
    cache.put(key, payload)
    os.unlink(cache._entry_path(key))  # disk copy lost
    assert cache.flush() == 1
    assert ResultCache(tmp_path).get(key) == payload
    assert cache.flush() == 0  # idempotent


def test_reader_never_sees_partial_record(tmp_path, append_source,
                                          payload):
    """Atomic-rename writes: a reader polling during rewrites sees the
    old complete record or the new complete record, never a prefix."""
    cache = ResultCache(tmp_path)
    key = make_key(append_source, ("append", 3))
    stored = cache.put(key, payload)
    path = cache._entry_path(key)
    stop = threading.Event()
    errors = []

    def rewrite():
        try:
            while not stop.is_set():
                cache._write_disk(key, stored)
        except BaseException as error:  # pragma: no cover
            errors.append(error)

    writer = threading.Thread(target=rewrite)
    writer.start()
    try:
        for _ in range(300):
            with open(path, "r", encoding="utf-8") as handle:
                record = json.loads(handle.read())
            assert record["payload"] == payload
    finally:
        stop.set()
        writer.join()
    assert not errors


def test_partial_write_is_ignored_on_read(tmp_path, append_source,
                                          payload):
    """A torn record — the shape a mid-crash writer without atomic
    rename would leave — must read as a miss, never raise or serve
    garbage."""
    key = make_key(append_source, ("append", 3))
    writer = ResultCache(tmp_path)
    writer.put(key, payload)
    path = writer._entry_path(key)
    full = open(path, "rb").read()
    with open(path, "wb") as handle:   # simulate the partial write
        handle.write(full[:len(full) // 2])
    reader = ResultCache(tmp_path)
    assert reader.get(key) is None
    assert reader.stats.misses == 1
    # a fresh put repairs the record in place
    reader.put(key, payload)
    assert ResultCache(tmp_path).get(key) == payload


def test_leftover_tempfile_is_not_a_record(tmp_path, append_source,
                                           payload):
    """A crash between mkstemp and rename leaves an orphan ``.tmp``;
    it must be invisible to reads, listings, and counts."""
    key = make_key(append_source, ("append", 3))
    cache = ResultCache(tmp_path)
    cache.put(key, payload)
    import os
    directory = cache._program_dir(key.program_hash)
    with open(os.path.join(directory, "orphan.tmp"), "w") as handle:
        handle.write('{"key": "torn mid-')
    fresh = ResultCache(tmp_path)
    assert fresh.get(key) == payload
    assert len(fresh) == 1
    assert len(fresh.keys_for_program(key.program_hash)) == 1


def test_fsync_knob(tmp_path, append_source, payload, monkeypatch):
    """fsync=True syncs the record file before the rename; the env
    knob turns it on without touching call sites."""
    import os
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd), real_fsync(fd))[1])
    key = make_key(append_source, ("append", 3))
    relaxed = ResultCache(tmp_path / "relaxed")
    relaxed.put(key, payload)
    assert not synced and not relaxed.fsync
    durable = ResultCache(tmp_path / "durable", fsync=True)
    durable.put(key, payload)
    assert len(synced) >= 2  # the record file and its directory
    assert ResultCache(tmp_path / "durable").get(key) == payload
    monkeypatch.setenv("REPRO_CACHE_FSYNC", "1")
    assert ResultCache(tmp_path / "env").fsync


def test_seed_is_memory_only(tmp_path, append_source, payload):
    """seed() — the replication primitive — must warm the memory tier
    without writing the shared disk store."""
    import os
    key = make_key(append_source, ("append", 3))
    cache = ResultCache(tmp_path)
    cache.seed(key, payload)
    assert cache.stats.seeds == 1
    assert not os.path.exists(cache._entry_path(key))   # no disk write
    assert cache.get(key) == payload
    assert cache.stats.memory_hits == 1
    assert ResultCache(tmp_path).get(key) is None       # other procs miss


# -- stored payload bytes ----------------------------------------------------

def test_payload_bytes_encoded_once_per_entry(monkeypatch, append_source,
                                              payload):
    """A stored payload is one EncodedPayload whose canonical bytes
    and fingerprint are computed once, on first use, and kept on it."""
    from repro.service import wire
    from repro.service.serialize import canonical_json, payload_fingerprint
    calls = []

    def counting(obj):
        calls.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(wire, "canonical_json", counting)
    key = make_key(append_source, ("append", 3))
    cache = ResultCache()
    cache.put(key, payload)
    stored = cache.get_memory(key)
    assert isinstance(stored, wire.EncodedPayload) and stored == payload
    assert calls == []                          # nothing encoded yet
    first = stored.wire
    assert first == canonical_json(payload).encode("utf-8")
    assert cache.get(key) is stored
    assert stored.wire is first and len(calls) == 1
    assert stored.fingerprint == payload_fingerprint(payload)
    assert stored.fingerprint is stored.fingerprint
    assert wire.EncodedPayload.of(stored) is stored


def test_payload_bytes_follow_a_recompute(tmp_path, append_source,
                                          payload):
    """Invalidate, then put a recomputed payload: the bytes served are
    the new computation's, never the ones kept for the old one."""
    key = make_key(append_source, ("append", 3))
    cache = ResultCache(tmp_path)
    cache.put(key, payload)
    old = cache.get_memory(key).wire
    assert cache.invalidate(key)
    recomputed = dict(payload, stats={"recomputed": True})
    cache.put(key, recomputed)
    new = cache.get_memory(key).wire
    assert new != old
    assert json.loads(new)["stats"] == {"recomputed": True}
    # a replacing put without an invalidate replaces the bytes as well,
    # in memory and on disk
    replaced = dict(payload, stats={"replaced": True})
    cache.put(key, replaced)
    assert json.loads(cache.get_memory(key).wire)["stats"] == \
        {"replaced": True}
    assert ResultCache(tmp_path).get(key).wire == cache.get(key).wire


def test_payload_bytes_of_another_object_are_not_stored(append_source,
                                                        payload):
    """An equal payload object encodes on its own; the stored one
    neither shares nor receives its bytes."""
    from repro.service.wire import EncodedPayload
    key = make_key(append_source, ("append", 3))
    cache = ResultCache()
    stored = cache.put(key, payload)
    other = EncodedPayload(payload)
    assert other == stored and other is not stored
    first = other.wire
    assert getattr(stored, "_wire", None) is None
    assert stored.wire == first and stored.wire is not first
    assert cache.get_memory(key) is stored


def test_eviction_and_clear_release_payload_bytes(append_source,
                                                  payload):
    import sys
    cache = ResultCache(max_memory_entries=1)
    keys = [make_key(append_source + "\np%d(a).\n" % i, ("append", 3))
            for i in range(2)]
    encoded = cache.put(keys[0], payload).wire
    held = sys.getrefcount(encoded)
    cache.put(keys[1], payload)  # evicts keys[0]
    assert cache.stats.evictions == 1
    assert sys.getrefcount(encoded) == held - 1
    encoded = cache.get_memory(keys[1]).wire
    held = sys.getrefcount(encoded)
    cache.clear()
    assert sys.getrefcount(encoded) == held - 1
