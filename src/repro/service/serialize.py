"""Canonical JSON serialization and content hashing of analysis
artifacts.

Everything the analyzer produces — grammars, abstract substitutions,
table entries, whole :class:`~repro.fixpoint.engine.AnalysisResult`
tables — encodes to plain JSON-ready objects and back, and everything
the analyzer consumes — programs, queries, input types,
:class:`~repro.fixpoint.engine.AnalysisConfig` — gets a stable content
hash.  The encodings are *canonical*: structurally equal values encode
to identical objects, so ``content_hash(encode(x))`` is a usable
content address (the substrate of :mod:`repro.service.cache`).

Program hashing works on the parsed form (``format_term`` of each
clause), so whitespace and comment edits do not change any hash.

Every entry encoding, and each tuple a fingerprint hashes, carries a
constant ``"seeded": false``: a member of the format since its first
version, kept so that table fingerprints stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from ..domains.leaf import LeafDomain, domain_from_descriptor
from ..domains.pattern import PAT_BOTTOM, AbstractSubst, PatNode
from ..fixpoint.engine import (AnalysisConfig, AnalysisResult,
                               AnalysisStats, Entry)
from ..prolog.program import PredId, Program, parse_program
from ..prolog.terms import format_term
from ..typegraph.grammar import Grammar

if TYPE_CHECKING:
    from ..assertions.checker import CheckReport

__all__ = [
    "FORMAT_VERSION", "canonical_json", "content_hash",
    "encode_grammar", "decode_grammar", "grammar_content_hash",
    "encode_subst", "decode_subst",
    "encode_entry", "decode_entry",
    "encode_result", "decode_result", "result_fingerprint",
    "payload_fingerprint",
    "encode_config", "decode_config", "config_hash",
    "encode_check", "decode_check", "check_fingerprint",
    "encode_input_types", "decode_input_types",
    "predicate_hashes", "program_hash",
]

#: Bump when any encoding changes shape — part of every cache key, so
#: stale on-disk artifacts from older formats are never decoded.
#: v2: AnalysisStats gained the opcache hit/miss counters.
#: v3: AnalysisStats gained the differential-engine counters
#: (clause_iterations_skipped, callsite_resumptions) and scheduler
#: provenance; AnalysisConfig gained ``differential``/``scheduler``.
#: v4: AnalysisStats gained ``arena_compiles`` (PR 4's arena kernel).
#: v5: AnalysisStats gained ``disjunction_fallbacks`` (oversized
#: disjunctions compiled to auxiliary predicates).
#: v6: AnalysisConfig gained ``keep_deps``/``assertions`` and check
#: payloads embed a ``check`` section (assertion verdicts + blame
#: slices).
#: v7: AnalysisStats lost its seeded-entry counter (table seeding removed).
FORMAT_VERSION = 7


# -- canonical JSON and hashing ----------------------------------------------

def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    """SHA-256 of the canonical JSON of a JSON-ready object."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8"))
    return digest.hexdigest()


# -- grammars ----------------------------------------------------------------

#: Per-instance content-hash memo for interned grammars: interning
#: makes structurally equal grammars one shared object, so the hash of
#: its canonical encoding is computed once per process instead of once
#: per cache-key/batch-job that mentions it.  Weak keys, so the memo
#: never outlives the intern table.
_GRAMMAR_HASH_MEMO: "weakref.WeakKeyDictionary[Grammar, str]" = \
    weakref.WeakKeyDictionary()


def grammar_content_hash(grammar: Grammar) -> str:
    """``content_hash(encode_grammar(grammar))``, memoized on interned
    instances (their encodings are immutable)."""
    if not grammar.interned:
        return content_hash(grammar.to_obj())
    digest = _GRAMMAR_HASH_MEMO.get(grammar)
    if digest is None:
        digest = content_hash(grammar.to_obj())
        _GRAMMAR_HASH_MEMO[grammar] = digest
    return digest


def encode_grammar(grammar: Grammar) -> dict:
    return grammar.to_obj()


def decode_grammar(data: dict) -> Grammar:
    return Grammar.from_obj(data)


# -- abstract substitutions --------------------------------------------------

def encode_subst(subst, domain: LeafDomain):
    """Encode a frozen substitution (or PAT_BOTTOM) against its leaf
    domain; leaf values go through :meth:`LeafDomain.encode_leaf`."""
    if subst is PAT_BOTTOM:
        return "bottom"
    assert isinstance(subst, AbstractSubst)
    nodes = []
    for node in subst.nodes:
        if node.is_leaf:
            nodes.append(["l", domain.encode_leaf(node.value)])
        elif node.is_int:
            nodes.append(["i", node.name])
        else:
            nodes.append(["f", node.name, list(node.args)])
    return {"nvars": subst.nvars, "sv": list(subst.sv), "nodes": nodes}


def decode_subst(data, domain: LeafDomain):
    if data == "bottom":
        return PAT_BOTTOM
    nodes = []
    for node in data["nodes"]:
        kind = node[0]
        if kind == "l":
            nodes.append(PatNode(value=domain.decode_leaf(node[1])))
        elif kind == "i":
            nodes.append(PatNode(node[1], True, ()))
        elif kind == "f":
            nodes.append(PatNode(node[1], False, tuple(node[2])))
        else:
            raise ValueError("unknown node kind: %r" % kind)
    # Interned on arrival: decoded substitutions join the process-wide
    # canonical instances.
    from ..domains.pattern import intern_subst
    return intern_subst(AbstractSubst(int(data["nvars"]),
                                      tuple(data["sv"]), tuple(nodes)))


# -- table entries and whole results -----------------------------------------

def encode_entry(entry: Entry, domain: LeafDomain) -> dict:
    return {
        "id": entry.id,
        "pred": list(entry.pred),
        "beta_in": encode_subst(entry.beta_in, domain),
        "beta_out": encode_subst(entry.beta_out, domain),
        "dependents": sorted(entry.dependents),
        "updates": entry.updates,
        "iterations": entry.iterations,
        "seeded": False,
    }


def decode_entry(data: dict, domain: LeafDomain) -> Entry:
    return Entry(
        id=int(data["id"]),
        pred=(data["pred"][0], int(data["pred"][1])),
        beta_in=decode_subst(data["beta_in"], domain),
        beta_out=decode_subst(data["beta_out"], domain),
        dependents=set(data.get("dependents", ())),
        updates=int(data.get("updates", 0)),
        iterations=int(data.get("iterations", 0)),
    )


def _encode_stats(stats: AnalysisStats) -> dict:
    return {
        "procedure_iterations": stats.procedure_iterations,
        "clause_iterations": stats.clause_iterations,
        "entries_created": stats.entries_created,
        "input_widenings": stats.input_widenings,
        "cpu_time": stats.cpu_time,
        "opcache_hits": stats.opcache_hits,
        "opcache_misses": stats.opcache_misses,
        "clause_iterations_skipped": stats.clause_iterations_skipped,
        "callsite_resumptions": stats.callsite_resumptions,
        "scheduler": stats.scheduler,
        "arena_compiles": stats.arena_compiles,
        "disjunction_fallbacks": stats.disjunction_fallbacks,
    }


def _decode_stats(data: dict) -> AnalysisStats:
    stats = AnalysisStats()
    for name in ("procedure_iterations", "clause_iterations",
                 "entries_created", "input_widenings",
                 "cpu_time", "opcache_hits", "opcache_misses",
                 "clause_iterations_skipped", "callsite_resumptions",
                 "scheduler", "arena_compiles", "disjunction_fallbacks"):
        if name in data:
            setattr(stats, name, data[name])
    return stats


def encode_result(result: AnalysisResult) -> dict:
    """Whole polyvariant table as a JSON-ready payload.  The program
    itself is *not* embedded — results are stored content-addressed by
    program hash, so the caller already has the source."""
    domain = result.domain
    return {
        "version": FORMAT_VERSION,
        "domain": domain.descriptor(),
        "root": result.root_entry.id,
        "entries": [encode_entry(e, domain) for e in result.entries],
        "unknown_predicates": [list(p) for p in result.unknown_predicates],
        "stats": _encode_stats(result.stats),
    }


def result_fingerprint(result: AnalysisResult) -> str:
    """Content hash of the *semantic* table: the multiset of
    (predicate, β_in, β_out) tuples, the root tuple by value,
    the leaf domain, and the unknown predicates.  Scheduling
    provenance — dependency edges, update/iteration counts, timing,
    and entry *ids* (creation order) — is deliberately excluded: two
    runs that compute the same types through different work or
    discovery order (operation caches on/off, differential
    re-evaluation on/off, a future worklist tweak) fingerprint
    identically, which is what the benchmark trajectory and the
    equivalence property tests compare."""
    domain = result.domain

    def tuple_of(entry: Entry) -> dict:
        return {
            "pred": list(entry.pred),
            "beta_in": encode_subst(entry.beta_in, domain),
            "beta_out": encode_subst(entry.beta_out, domain),
            "seeded": False,
        }

    return content_hash({
        "domain": domain.descriptor(),
        "root": tuple_of(result.root_entry),
        "entries": sorted((tuple_of(e) for e in result.entries),
                          key=canonical_json),
        "unknown_predicates": [list(p)
                               for p in result.unknown_predicates],
    })


def payload_fingerprint(payload: dict) -> str:
    """:func:`result_fingerprint` computed directly from an
    :func:`encode_result` payload, without decoding it back into an
    ``AnalysisResult``.  The entry encodings already *are* the
    canonical forms the fingerprint hashes, so the two functions agree
    by construction (asserted in ``tests/test_serialize.py``) — this is
    what lets the server, the client, and the load generator compare
    fingerprints of cached/remote payloads against a one-shot run."""
    by_id = {int(entry["id"]): entry for entry in payload["entries"]}
    root = by_id[int(payload["root"])]

    def tuple_of(entry: dict) -> dict:
        return {
            "pred": entry["pred"],
            "beta_in": entry["beta_in"],
            "beta_out": entry["beta_out"],
            "seeded": False,
        }

    return content_hash({
        "domain": payload["domain"],
        "root": tuple_of(root),
        "entries": sorted((tuple_of(e) for e in payload["entries"]),
                          key=canonical_json),
        "unknown_predicates": payload["unknown_predicates"],
    })


def decode_result(data: dict, program=None,
                  domain: Optional[LeafDomain] = None) -> AnalysisResult:
    """Rebuild an :class:`AnalysisResult` from :func:`encode_result`
    output.  ``program`` (a :class:`NormProgram`) is optional; cache
    consumers that only read the table can leave it ``None``."""
    if data.get("version") != FORMAT_VERSION:
        raise ValueError("unsupported result format version: %r"
                         % data.get("version"))
    if domain is None:
        domain = domain_from_descriptor(data["domain"])
    entries = [decode_entry(e, domain) for e in data["entries"]]
    by_id = {e.id: e for e in entries}
    root = by_id[int(data["root"])]
    unknown = [(p[0], int(p[1])) for p in data["unknown_predicates"]]
    return AnalysisResult(program, domain, _decode_stats(data["stats"]),
                          root, entries, unknown)


# -- assertion check sections ------------------------------------------------

def encode_check(report: CheckReport, slices=()) -> dict:
    """The ``check`` section of a verification payload: every verdict
    plus the blame slices of the violations.  Embedded next to the
    encoded table in the cache payload, so a warm hit returns
    bit-identical verdicts without re-checking."""
    return {"verdicts": [v.to_obj() for v in report.verdicts],
            "slices": [s.to_obj() for s in slices]}


def decode_check(data: dict):
    """(CheckReport, [BlameSlice]) back out of :func:`encode_check`."""
    from ..assertions.checker import CheckReport
    from ..assertions.slicer import BlameSlice
    report = CheckReport.from_obj(data)
    slices = [BlameSlice.from_obj(s) for s in data.get("slices", ())]
    return report, slices


def check_fingerprint(check_obj: dict) -> str:
    """Content hash of one encoded ``check`` section — the stability
    contract: identical across kernel tiers, cache-warm/cold runs, and
    one-shot vs. served execution."""
    return content_hash({"verdicts": check_obj.get("verdicts", []),
                         "slices": check_obj.get("slices", [])})


# -- analysis inputs: config, input types, programs --------------------------

def encode_config(config: AnalysisConfig) -> dict:
    return {
        "max_or_width": config.max_or_width,
        "max_input_patterns": config.max_input_patterns,
        "widening_delay": config.widening_delay,
        "strict_widening_after": config.strict_widening_after,
        "max_procedure_iterations": config.max_procedure_iterations,
        "type_database": (None if config.type_database is None else
                          [g.to_obj() for g in config.type_database]),
        "differential": config.differential,
        "scheduler": config.scheduler,
        "keep_deps": config.keep_deps,
        "assertions": [a.to_obj() for a in config.assertions],
    }


def decode_config(data: dict) -> AnalysisConfig:
    from ..assertions.frontend import Assertion
    type_database = data.get("type_database")
    if type_database is not None:
        type_database = [Grammar.from_obj(g) for g in type_database]
    return AnalysisConfig(
        max_or_width=data.get("max_or_width"),
        max_input_patterns=data.get("max_input_patterns", 8),
        widening_delay=data.get("widening_delay", 2),
        strict_widening_after=data.get("strict_widening_after", 12),
        max_procedure_iterations=data.get("max_procedure_iterations",
                                          200000),
        type_database=type_database,
        differential=data.get("differential", True),
        scheduler=data.get("scheduler", "lifo"),
        keep_deps=bool(data.get("keep_deps", False)),
        assertions=tuple(Assertion.from_obj(a)
                         for a in data.get("assertions", ())),
    )


def config_hash(config: Optional[AnalysisConfig]) -> str:
    """Content hash of the semantically relevant config knobs.

    ``differential`` is deliberately excluded: differential and full
    re-evaluation produce bit-identical tables (enforced by
    ``tests/test_differential_properties.py``), so it must not split
    the result cache.  ``keep_deps`` is excluded for the same reason:
    retaining the dependency graph never changes the table.
    ``scheduler`` *is* included: the iteration order feeds the
    widening sequence, so different schedulers may legitimately reach
    different (equally sound) tables.  ``assertions`` is included
    because check payloads fold verdicts in — a cached verdict must
    only ever be served for the exact assertion set it judged."""
    obj = encode_config(config if config is not None
                        else AnalysisConfig())
    obj.pop("differential", None)
    obj.pop("keep_deps", None)
    return content_hash(obj)


def encode_input_types(
        input_types: Optional[Sequence[Union[str, Grammar]]]):
    """Input type specs: strings pass through, grammars encode."""
    if input_types is None:
        return None
    return [spec if isinstance(spec, str) else ["g", spec.to_obj()]
            for spec in input_types]


def decode_input_types(data):
    if data is None:
        return None
    return [spec if isinstance(spec, str) else Grammar.from_obj(spec[1])
            for spec in data]


# -- program hashing ---------------------------------------------------------

def predicate_hashes(source: Union[str, Program]) -> Dict[PredId, str]:
    """Per-predicate content hash over the formatted clauses — stable
    under whitespace/comment edits, sensitive to any clause change
    (variable *renamings* do change the hash, which is merely
    conservative for invalidation)."""
    program = parse_program(source) if isinstance(source, str) else source
    hashes: Dict[PredId, str] = {}
    for pred, procedure in program.procedures.items():
        clause_texts = [repr(clause) for clause in procedure.clauses]
        hashes[pred] = content_hash(clause_texts)
    return hashes


def program_hash(source: Union[str, Program]) -> str:
    """Content hash of a whole program: the sorted per-predicate hashes
    plus directives."""
    program = parse_program(source) if isinstance(source, str) else source
    per_pred = sorted(
        [[pred[0], pred[1], digest]
         for pred, digest in predicate_hashes(program).items()])
    directives = [format_term(d) for d in program.directives]
    return content_hash({"version": FORMAT_VERSION,
                         "predicates": per_pred,
                         "directives": directives})
