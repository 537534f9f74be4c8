"""The analysis service layer: durable, reusable analysis artifacts.

These modules turn the one-shot analyzer into a serving substrate:

* :mod:`repro.service.serialize` — canonical JSON encodings and
  content hashes for everything the analyzer consumes and produces;
* :mod:`repro.service.cache` — a content-addressed result store
  (in-memory LRU over an optional on-disk object store);
* :mod:`repro.service.batch` — a cache-first batch driver with an
  optional process pool;
* :mod:`repro.service.transport` — the shared newline-delimited JSON
  wire protocol (framing, envelopes, connection lifecycle);
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  long-lived ``repro serve`` daemon (warm caches, request coalescing,
  backpressure) and its blocking client;
* :mod:`repro.service.cluster` — the ``repro router`` front door:
  consistent-hash sharding over N serve daemons with health checks,
  failover, and a shared on-disk L2 cache.

Quickstart::

    from repro.service import Job, ResultCache, run_batch
    cache = ResultCache("~/.cache/repro")
    report = run_batch([Job("app", source, ("app", 3))], cache)
    report.results[0].result().output
"""

from .._lazy import lazy_exports

#: Every re-export resolves lazily: every one-shot CLI, batch worker,
#: and pool child imports this package, and each needs only a part of
#: it (none of them the asyncio/socket/subprocess stack the daemon
#: drags in).
__all__, __getattr__ = lazy_exports(__name__, {
    "serialize": ("FORMAT_VERSION", "canonical_json", "content_hash",
                  "encode_grammar", "decode_grammar",
                  "encode_subst", "decode_subst",
                  "encode_config", "decode_config", "config_hash",
                  "encode_result", "decode_result", "result_fingerprint",
                  "payload_fingerprint", "predicate_hashes",
                  "program_hash"),
    "cache": ("CacheKey", "CacheStats", "ResultCache", "make_key"),
    "batch": ("Job", "JobResult", "BatchReport", "WorkerPool",
              "run_batch", "jobs_from_benchmarks"),
    "server": ("AnalysisServer", "serve_main"),
    "client": ("ServeClient", "ServeError", "spawn_server",
               "spawn_router", "wait_for_server"),
    "cluster": ("ClusterRouter", "HashRing", "router_main"),
})
