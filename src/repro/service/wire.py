"""Encode-once result payloads for the served and batch paths.

Every payload the service holds is an :class:`EncodedPayload`: the
:func:`~repro.service.serialize.encode_result` payload plus its bytes,
``canonical_json(payload)`` (the form the one-shot CLI prints), and its
table fingerprint.  A fresh result leaves its executor (the server's
analysis thread, a :class:`~repro.service.batch.WorkerPool` worker, or
the serial ``run_batch`` path) with both already assembled, in one
pass over the per-substitution texts memoized on the interned
substitution by :func:`~repro.service.serialize.subst_texts` (a
template for the bytes, whose leaves are numbered per payload into its
leaf table, and the inline text for the fingerprint), so a warm server
re-encodes only the substitutions an edit created.  A payload that
arrives as a plain dict (a disk record, a ``seed`` push) computes both
on first use.  The response, the memory tier, the disk
record and the fingerprint all share the one encoding.

The one-shot CLI does not import this module: it prints its dict with
``canonical_json``, never fingerprints, and runs with cold memos.
"""

from __future__ import annotations

import json

from ..fixpoint.engine import AnalysisResult
from .serialize import (LeafTable, canonical_json, payload_fingerprint,
                        subst_texts, table_fingerprint, tuple_json)

__all__ = ["EncodedPayload", "encode_payload"]


class EncodedPayload(dict):
    """An :func:`~repro.service.serialize.encode_result` payload that
    keeps its own encodings: ``wire`` is ``canonical_json(payload)`` as
    bytes and ``fingerprint`` is ``payload_fingerprint(payload)``.  Each
    is computed at most once, on first use, unless
    :func:`encode_payload` assembled it already; it pickles with what
    it has, so a pool worker's encoding reaches the server.  Treat it
    as read-only: a mutation would not reach ``wire``."""

    __slots__ = ("_wire", "_fingerprint")

    @classmethod
    def of(cls, payload: dict) -> "EncodedPayload":
        """``payload`` itself if it is one already, else a copy that
        encodes on first use."""
        return payload if type(payload) is cls else cls(payload)

    @property
    def wire(self) -> bytes:
        wire = getattr(self, "_wire", None)
        if wire is None:
            wire = self._wire = canonical_json(self).encode("utf-8")
        return wire

    @property
    def fingerprint(self) -> str:
        fingerprint = getattr(self, "_fingerprint", None)
        if fingerprint is None:
            fingerprint = self._fingerprint = payload_fingerprint(self)
        return fingerprint


def encode_payload(result: AnalysisResult, payload: dict) -> EncodedPayload:
    """``payload`` (``encode_result(result)``, optionally with a
    ``check`` section) with its bytes and fingerprint, assembled from
    per-substitution texts with string joins: each substitution's
    template takes the indices of its leaves in a leaf table numbered
    here in first-use order, the table is the distinct leaf texts in
    that order, and the fields go in sorted key order without
    whitespace, so ``wire`` is byte-identical to
    ``canonical_json(payload).encode()``.  The fingerprint hashes the
    inline texts of the same substitutions."""
    domain = result.domain
    table = LeafTable()
    number = table.__getitem__

    def texts(subst) -> tuple:
        inline, template, leaves = subst_texts(subst, domain)
        return inline, template % tuple(map(number, leaves))

    preds = {}
    entries = []
    tuples = {}
    for entry in result.entries:
        pred = preds.get(entry.pred)
        if pred is None:
            pred = preds[entry.pred] = canonical_json(list(entry.pred))
        in_inline, beta_in = texts(entry.beta_in)
        out_inline, beta_out = texts(entry.beta_out)
        entries.append(
            '{"beta_in":%s,"beta_out":%s,"dependents":[%s],"id":%d,'
            '"iterations":%d,"pred":%s,"seeded":false,"updates":%d}'
            % (beta_in, beta_out, ",".join(map(str, sorted(
                entry.dependents))), entry.id, entry.iterations, pred,
               entry.updates))
        tuples[entry.id] = tuple_json(pred, in_inline, out_inline)
    fields = {"entries": "[" + ",".join(entries) + "]",
              "leaves": "[" + ",".join(table) + "]"}
    encoded = EncodedPayload(payload)
    encoded._wire = ("{" + ",".join(
        "%s:%s" % (json.dumps(name), fields[name] if name in fields
                   else canonical_json(value))
        for name, value in sorted(payload.items())) + "}").encode("utf-8")
    encoded._fingerprint = table_fingerprint(
        payload["domain"], tuples, payload["root"],
        payload["unknown_predicates"])
    return encoded
