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

A result payload holds each distinct leaf value once: its top-level
``"leaves"`` list encodes every distinct leaf in first-use order
(entries in order, β_in before β_out, nodes in order), and a leaf node
is a reference ``["l", k]`` into it.  A substitution encoded on its
own (:func:`encode_subst`, :func:`subst_json`) and every tuple a
fingerprint hashes keep the leaf value inline, so fingerprints do not
depend on the leaf table.

Every entry encoding, and each tuple a fingerprint hashes, carries a
constant ``"seeded": false``: a member of the format since its first
version, kept so that table fingerprints stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from ..domains.leaf import (LeafDomain, TypeLeafDomain,
                            domain_from_descriptor)
from ..domains.pattern import PAT_BOTTOM, AbstractSubst, PatNode
from ..fixpoint.engine import (AnalysisConfig, AnalysisResult,
                               AnalysisStats, Entry)
from ..prolog.program import (PredId, Program, clause_text,
                                parse_program)
from ..prolog.terms import format_term
from ..typegraph.grammar import Grammar

if TYPE_CHECKING:
    from ..assertions.checker import CheckReport

__all__ = [
    "FORMAT_VERSION", "canonical_json", "content_hash",
    "encode_grammar", "decode_grammar", "grammar_content_hash",
    "encode_subst", "decode_subst", "subst_json", "subst_texts",
    "encode_entry", "decode_entry", "LeafTable",
    "encode_result", "result_head", "decode_result", "tuple_json",
    "table_fingerprint",
    "result_fingerprint", "payload_fingerprint",
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
#: v8: result payloads gained a ``leaves`` table holding each distinct
#: leaf value once; a leaf node is a reference ``["l", k]`` into it.
FORMAT_VERSION = 8


# -- canonical JSON and hashing ----------------------------------------------

def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    """SHA-256 of the canonical JSON of a JSON-ready object."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8"))
    return digest.hexdigest()


# -- grammars ----------------------------------------------------------------

#: Per-instance canonical-JSON memo for interned grammars: interning
#: makes structurally equal grammars one shared object, so its text
#: (and the content hash of it) is computed once per process instead
#: of once per cache key, batch job or leaf table that mentions it.
#: Weak keys, so the memo never outlives the intern table.
_GRAMMAR_TEXT_MEMO: "weakref.WeakKeyDictionary[Grammar, str]" = \
    weakref.WeakKeyDictionary()


def _grammar_json(grammar: Grammar) -> str:
    """``canonical_json(encode_grammar(grammar))``, memoized on
    interned instances (their encodings are immutable)."""
    if not grammar.interned:
        return canonical_json(grammar.to_obj())
    text = _GRAMMAR_TEXT_MEMO.get(grammar)
    if text is None:
        text = _GRAMMAR_TEXT_MEMO[grammar] = canonical_json(
            grammar.to_obj())
    return text


def grammar_content_hash(grammar: Grammar) -> str:
    """``content_hash(encode_grammar(grammar))``, from the memoized
    text."""
    return hashlib.sha256(_grammar_json(grammar).encode("utf-8")
                          ).hexdigest()


def encode_grammar(grammar: Grammar) -> dict:
    return grammar.to_obj()


def decode_grammar(data: dict) -> Grammar:
    return Grammar.from_obj(data)


# -- abstract substitutions --------------------------------------------------

def _leaf_json(value, domain: LeafDomain) -> str:
    """``canonical_json(domain.encode_leaf(value))``.  A type domain
    encodes a leaf as its grammar's :meth:`Grammar.to_obj`, so the
    text of an interned grammar comes from :func:`_grammar_json`'s
    memo."""
    if isinstance(domain, TypeLeafDomain):
        return _grammar_json(value)
    return canonical_json(domain.encode_leaf(value))


def encode_subst(subst, domain: LeafDomain, leaf_ref=None):
    """Encode a frozen substitution (or PAT_BOTTOM) against its leaf
    domain.  A leaf node holds its value, through
    :meth:`LeafDomain.encode_leaf`, or, given ``leaf_ref``, the index
    ``leaf_ref(value)`` of that value in a payload's leaf table."""
    if subst is PAT_BOTTOM:
        return "bottom"
    assert isinstance(subst, AbstractSubst)
    nodes = []
    for name, is_int, args, value in subst.node_rows():
        if args is None:
            nodes.append(["l", domain.encode_leaf(value)
                          if leaf_ref is None else leaf_ref(value)])
        elif is_int:
            nodes.append(["i", name])
        else:
            nodes.append(["f", name, list(args)])
    return {"nvars": subst.nvars, "sv": list(subst.sv), "nodes": nodes}


#: A leaf node while a substitution's template is encoded: ``NaN`` is
#: no value a payload holds, and a quote inside a JSON string is always
#: escaped, so this token stands only where a leaf node is.
_SLOT_TOKEN = '["l",NaN]'


def _slot(value) -> float:
    return math.nan


def _subst_texts(subst: AbstractSubst, domain: LeafDomain) -> tuple:
    """``(inline, template, leaves)`` of one substitution: its
    canonical text with the leaf values inline, the same text as a
    ``%``-template with a ``%s`` slot where each leaf's value or index
    goes, and the :func:`_leaf_json` texts of its leaves in node
    order."""
    template = canonical_json(encode_subst(subst, domain, _slot)).replace(
        "%", "%%").replace(_SLOT_TOKEN, '["l",%s]')
    leaves = tuple(_leaf_json(value, domain)
                   for _, _, args, value in subst.node_rows()
                   if args is None)
    return template % leaves, template, leaves


_BOTTOM_TEXTS = ('"bottom"', '"bottom"', ())


def subst_texts(subst, domain: LeafDomain) -> tuple:
    """``(inline, template, leaves)`` of a substitution (see
    :func:`_subst_texts`): ``template % refs`` is its payload text when
    its leaves, the texts ``leaves``, sit at indices ``refs`` of the
    payload's :class:`LeafTable`.  Memoized on interned substitutions
    of a domain whose did names its configuration
    (``AbstractSubst.text_memo``, one entry per did), so a warm process
    encodes only the substitutions an edit created."""
    if subst is PAT_BOTTOM:
        return _BOTTOM_TEXTS
    if not (subst.interned and domain.shared_did):
        return _subst_texts(subst, domain)
    memo = subst.text_memo
    if memo is None:
        memo = subst.text_memo = {}
    texts = memo.get(domain.did)
    if texts is None:
        texts = memo[domain.did] = _subst_texts(subst, domain)
    return texts


def subst_json(subst, domain: LeafDomain) -> str:
    """``canonical_json(encode_subst(subst, domain))``: the leaf
    values inline, as every fingerprinted tuple holds them."""
    return subst_texts(subst, domain)[0]


def _leaf_at(leaves: list, ref):
    """``leaves[ref]`` for a leaf reference read from a payload, which
    must be an in-range, non-negative integer."""
    if type(ref) is not int or not 0 <= ref < len(leaves):
        raise ValueError("bad leaf reference %r (the payload has %d "
                         "leaves)" % (ref, len(leaves)))
    return leaves[ref]


def decode_subst(data, domain: LeafDomain, leaves: Optional[list] = None):
    """Inverse of :func:`encode_subst`: a leaf node's value is decoded
    inline, or, given ``leaves`` (a payload's leaf table, decoded), is
    the table entry it references."""
    if data == "bottom":
        return PAT_BOTTOM
    nodes = []
    for node in data["nodes"]:
        kind = node[0]
        if kind == "l":
            nodes.append(PatNode(value=domain.decode_leaf(node[1])
                                 if leaves is None
                                 else _leaf_at(leaves, node[1])))
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

def encode_entry(entry: Entry, domain: LeafDomain, leaf_ref=None) -> dict:
    return {
        "id": entry.id,
        "pred": list(entry.pred),
        "beta_in": encode_subst(entry.beta_in, domain, leaf_ref),
        "beta_out": encode_subst(entry.beta_out, domain, leaf_ref),
        "dependents": sorted(entry.dependents),
        "updates": entry.updates,
        "iterations": entry.iterations,
        "seeded": False,
    }


def decode_entry(data: dict, domain: LeafDomain,
                 leaves: Optional[list] = None) -> Entry:
    return Entry(
        id=int(data["id"]),
        pred=(data["pred"][0], int(data["pred"][1])),
        beta_in=decode_subst(data["beta_in"], domain, leaves),
        beta_out=decode_subst(data["beta_out"], domain, leaves),
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


class LeafTable(dict):
    """A payload's leaf table while it is encoded: each distinct leaf
    (a value, or its canonical text; the encoding is canonical, so
    either names it) -> its index, numbered in first-use order by
    looking it up."""

    __slots__ = ()

    def __missing__(self, leaf) -> int:
        ref = self[leaf] = len(self)
        return ref


def result_head(result: AnalysisResult) -> dict:
    """Every field of :func:`encode_result`'s payload but the table's
    ``entries`` and ``leaves``."""
    return {
        "version": FORMAT_VERSION,
        "domain": result.domain.descriptor(),
        "root": result.root_entry.id,
        "unknown_predicates": [list(p) for p in result.unknown_predicates],
        "stats": _encode_stats(result.stats),
    }


def encode_result(result: AnalysisResult) -> dict:
    """Whole polyvariant table as a JSON-ready payload.  The program
    itself is *not* embedded — results are stored content-addressed by
    program hash, so the caller already has the source.  Each distinct
    leaf value is encoded once, in the ``leaves`` table, in first-use
    order; leaf nodes reference it by index."""
    domain = result.domain
    table = LeafTable()
    payload = result_head(result)
    payload["entries"] = [encode_entry(e, domain, table.__getitem__)
                          for e in result.entries]
    payload["leaves"] = [domain.encode_leaf(value) for value in table]
    return payload


def _payload_leaves(payload: dict) -> list:
    """A payload's ``leaves`` list, which it must have."""
    leaves = payload.get("leaves")
    if not isinstance(leaves, list):
        raise ValueError("the payload has no 'leaves' list")
    return leaves


def tuple_json(pred: str, beta_in: str, beta_out: str) -> str:
    """Canonical text of one fingerprinted (predicate, β_in, β_out)
    tuple, from the canonical texts of its three parts."""
    return '{"beta_in":%s,"beta_out":%s,"pred":%s,"seeded":false}' % (
        beta_in, beta_out, pred)


def table_fingerprint(domain: dict, tuples: Dict[int, str], root: int,
                      unknown_predicates: list) -> str:
    """The one table fingerprint: the content hash of the *semantic*
    table, built from the :func:`tuple_json` text of each entry id.
    It covers the multiset of (predicate, β_in, β_out) tuples, the
    root tuple by value, the leaf domain, and the unknown predicates.
    Scheduling provenance — dependency edges, update/iteration counts,
    timing, and entry *ids* (creation order) — is deliberately
    excluded: two runs that compute the same types through different
    work or discovery order (differential re-evaluation on/off, a
    future worklist tweak) fingerprint identically, which is what the
    benchmark trajectory and the equivalence property tests compare."""
    text = '{"domain":%s,"entries":[%s],"root":%s,' \
        '"unknown_predicates":%s}' % (
            canonical_json(domain), ",".join(sorted(tuples.values())),
            tuples[root], canonical_json(unknown_predicates))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_fingerprint(result: AnalysisResult) -> str:
    """:func:`table_fingerprint` of an :class:`AnalysisResult`."""
    domain = result.domain
    return table_fingerprint(
        domain.descriptor(),
        {e.id: tuple_json(canonical_json(list(e.pred)),
                          subst_json(e.beta_in, domain),
                          subst_json(e.beta_out, domain))
         for e in result.entries},
        result.root_entry.id,
        [list(p) for p in result.unknown_predicates])


def _payload_subst_text(subst, leaves: list, texts: Dict[int, str]) -> str:
    """Canonical text of a payload substitution with each leaf
    reference ``["l", k]`` expanded to ``["l", leaves[k]]``.  The
    substitution is encoded once with a placeholder at its leaf nodes,
    and each leaf's canonical text (memoized in ``texts``) goes into
    the placeholders: the bytes ``canonical_json`` gives the expanded
    substitution, as a nested value encodes as it does alone."""
    if subst == "bottom":
        return '"bottom"'
    refs = [node[1] for node in subst["nodes"] if node[0] == "l"]
    for ref in refs:
        if type(ref) is not int or ref not in texts:
            texts[ref] = canonical_json(_leaf_at(leaves, ref))
    parts = canonical_json(dict(subst, nodes=[
        _SLOT_NODE if node[0] == "l" else node
        for node in subst["nodes"]])).split(_SLOT_TOKEN)
    if len(parts) != len(refs) + 1:
        # a malformed payload holds the placeholder elsewhere too
        return canonical_json(dict(subst, nodes=[
            ["l", leaves[node[1]]] if node[0] == "l" else node
            for node in subst["nodes"]]))
    out = [parts[0]]
    for ref, part in zip(refs, parts[1:]):
        out.append('["l",%s]' % texts[ref])
        out.append(part)
    return "".join(out)


#: A leaf node while :func:`_payload_subst_text` encodes; it encodes as
#: :data:`_SLOT_TOKEN`.
_SLOT_NODE = ["l", math.nan]


def payload_fingerprint(payload: dict) -> str:
    """:func:`table_fingerprint` of an :func:`encode_result` payload,
    without decoding it back into an ``AnalysisResult`` — what lets
    the server, the client, and the load generator compare
    fingerprints of cached/remote payloads against a one-shot run.
    Each leaf reference is expanded to its value first, so the tuples
    hashed are the inline ones :func:`result_fingerprint` hashes; each
    distinct leaf is encoded once and its text spliced in at every
    use.  A bad reference or a missing leaf table raises
    ``ValueError``."""
    leaves = _payload_leaves(payload)
    texts: Dict[int, str] = {}
    return table_fingerprint(
        payload["domain"],
        {int(e["id"]): tuple_json(
            canonical_json(e["pred"]),
            _payload_subst_text(e["beta_in"], leaves, texts),
            _payload_subst_text(e["beta_out"], leaves, texts))
         for e in payload["entries"]},
        int(payload["root"]), payload["unknown_predicates"])


def decode_result(data: dict, program=None,
                  domain: Optional[LeafDomain] = None) -> AnalysisResult:
    """Rebuild an :class:`AnalysisResult` from :func:`encode_result`
    output, decoding each distinct leaf once.  ``program`` (a
    :class:`NormProgram`) is optional; cache consumers that only read
    the table can leave it ``None``.  A payload of another format
    version, without a leaf table, or with a leaf reference that is
    not an index into it raises ``ValueError``."""
    if data.get("version") != FORMAT_VERSION:
        raise ValueError("unsupported result format version: %r"
                         % data.get("version"))
    if domain is None:
        domain = domain_from_descriptor(data["domain"])
    leaves = [domain.decode_leaf(leaf) for leaf in _payload_leaves(data)]
    entries = [decode_entry(e, domain, leaves) for e in data["entries"]]
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
        clause_texts = [clause_text(clause) for clause in procedure.clauses]
        hashes[pred] = content_hash(clause_texts)
    return hashes


#: Source text -> :func:`program_hash`, least recently used first.
#: Hashing a text parses the whole program; batch keying, the server's
#: request keys and the router's ring keys ask again for the same
#: texts.  Bounded like the server's request memo, as each entry holds
#: a program text.
_PROGRAM_HASHES: "OrderedDict[str, str]" = OrderedDict()
_PROGRAM_HASHES_LOCK = threading.Lock()
_PROGRAM_HASHES_MAX = 256


def program_hash(source: Union[str, Program]) -> str:
    """Content hash of a whole program: the sorted per-predicate hashes
    plus directives.  Memoized on source text (bounded)."""
    if not isinstance(source, str):
        return _program_hash(source)
    memo = _PROGRAM_HASHES
    with _PROGRAM_HASHES_LOCK:
        digest = memo.get(source)
        if digest is not None:
            memo.move_to_end(source)
            return digest
    digest = _program_hash(parse_program(source))
    with _PROGRAM_HASHES_LOCK:
        memo[source] = digest
        if len(memo) > _PROGRAM_HASHES_MAX:
            memo.popitem(last=False)
    return digest


def _program_hash(program: Program) -> str:
    per_pred = sorted(
        [[pred[0], pred[1], digest]
         for pred, digest in predicate_hashes(program).items()])
    directives = [format_term(d) for d in program.directives]
    return content_hash({"version": FORMAT_VERSION,
                         "predicates": per_pred,
                         "directives": directives})
