"""Encode-once result payloads for the served and batch paths.

A fresh analysis result leaves its executor (the server's analysis
thread, a :class:`~repro.service.batch.WorkerPool` worker, or the
serial ``run_batch`` path) as an :class:`EncodedPayload`: the
:func:`~repro.service.serialize.encode_result` payload plus its JSON
bytes and its fingerprint.  Both come from one assembly over
per-substitution JSON texts, which are memoized on the interned
substitution itself (``AbstractSubst.text_memo``, keyed by domain
did), so a warm server re-encodes only the substitutions an edit
created.  The response, the memory tier, the disk record and the
fingerprint all share the one encoding.

The one-shot CLI does not import this module: it writes its JSON with
one ``json.dumps``, never fingerprints, and runs with cold memos.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Tuple

from ..domains.leaf import LeafDomain
from ..domains.pattern import PAT_BOTTOM
from ..fixpoint.engine import AnalysisResult
from .serialize import canonical_json, encode_subst

__all__ = ["EncodedPayload", "encode_payload", "subst_texts"]

#: ``(canonical, wire)`` text of ``encode_subst(PAT_BOTTOM, _)``.
_BOTTOM_TEXTS = ('"bottom"', '"bottom"')


class EncodedPayload(dict):
    """An :func:`~repro.service.serialize.encode_result` payload that
    carries its own encodings: ``wire`` is ``json.dumps(payload)`` as
    bytes and ``fingerprint`` is ``payload_fingerprint(payload)``.  It
    pickles with both, so a pool worker's encoding reaches the server.
    Treat it as read-only: a mutation would not reach ``wire``."""

    __slots__ = ("wire", "fingerprint")


def subst_texts(subst, domain: LeafDomain) -> Tuple[str, str]:
    """``(canonical_json(obj), json.dumps(obj))`` of ``obj =
    encode_subst(subst, domain)``, memoized on interned substitutions
    of a domain whose did names its configuration."""
    if subst is PAT_BOTTOM:
        return _BOTTOM_TEXTS
    memoized = subst.interned and domain.shared_did
    if memoized:
        memo = subst.text_memo
        if memo is not None:
            texts = memo.get(domain.did)
            if texts is not None:
                return texts
    obj = encode_subst(subst, domain)
    texts = (canonical_json(obj), json.dumps(obj))
    if memoized:
        if subst.text_memo is None:
            subst.text_memo = {domain.did: texts}
        else:
            subst.text_memo[domain.did] = texts
    return texts


def encode_payload(result: AnalysisResult, payload: dict) -> EncodedPayload:
    """``payload`` (``encode_result(result)``, optionally with a
    ``check`` section) with its wire bytes and fingerprint, assembled
    from per-substitution texts with string joins.  Every field but
    ``entries`` is encoded as ``json.dumps`` would, in the payload's
    own key order, so ``wire`` is byte-identical to
    ``json.dumps(payload).encode()``."""
    domain = result.domain
    root_id = payload["root"]
    preds: Dict[tuple, Tuple[str, str]] = {}
    wire_entries = []
    tuples = []
    root_tuple: Optional[str] = None
    for entry in result.entries:
        pred = preds.get(entry.pred)
        if pred is None:
            obj = list(entry.pred)
            pred = preds[entry.pred] = (canonical_json(obj),
                                        json.dumps(obj))
        canon_in, wire_in = subst_texts(entry.beta_in, domain)
        canon_out, wire_out = subst_texts(entry.beta_out, domain)
        wire_entries.append(
            '{"id": %d, "pred": %s, "beta_in": %s, "beta_out": %s, '
            '"dependents": %s, "updates": %d, "iterations": %d, '
            '"seeded": false}'
            % (entry.id, pred[1], wire_in, wire_out,
               json.dumps(sorted(entry.dependents)), entry.updates,
               entry.iterations))
        text = ('{"beta_in":%s,"beta_out":%s,"pred":%s,"seeded":false}'
                % (canon_in, canon_out, pred[0]))
        tuples.append(text)
        if entry.id == root_id:
            root_tuple = text
    if root_tuple is None:
        raise KeyError("root entry %r is not in the table" % root_id)
    tuples.sort()
    canonical = '{"domain":%s,"entries":[%s],"root":%s,' \
        '"unknown_predicates":%s}' % (
            canonical_json(payload["domain"]), ",".join(tuples),
            root_tuple, canonical_json(payload["unknown_predicates"]))
    entries_text = "[" + ", ".join(wire_entries) + "]"
    wire = "{" + ", ".join(
        "%s: %s" % (json.dumps(name),
                    entries_text if name == "entries"
                    else json.dumps(value))
        for name, value in payload.items()) + "}"
    encoded = EncodedPayload(payload)
    encoded.wire = wire.encode("utf-8")
    encoded.fingerprint = hashlib.sha256(
        canonical.encode("utf-8")).hexdigest()
    return encoded
