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
re-encodes only the substitutions an edit created.  The executor
never builds the table's dict: a fresh payload holds the small fields
(:func:`~repro.service.serialize.result_head`, and a ``check``
section) and decodes its ``entries`` and ``leaves`` from its bytes
the first time something reads them (``repro batch``, a test).  A
payload that arrives as a plain dict (a disk record, a ``seed`` push)
computes its bytes and fingerprint on first use.  The response, the
memory tier, the disk record and the fingerprint all share the one
encoding.

The one-shot CLI does not import this module: it prints its dict with
``canonical_json``, never fingerprints, and runs with cold memos.
"""

from __future__ import annotations

import json

from .._collector import collector_paused
from ..fixpoint.engine import AnalysisResult
from .serialize import (LeafTable, canonical_json, payload_fingerprint,
                        subst_texts, table_fingerprint, tuple_json)

__all__ = ["EncodedPayload", "encode_payload"]


#: The fields :func:`encode_payload` writes from substitution texts.
_TABLE_FIELDS = ("entries", "leaves")


class EncodedPayload(dict):
    """An :func:`~repro.service.serialize.encode_result` payload that
    keeps its own encodings: ``wire`` is ``canonical_json(payload)`` as
    bytes and ``fingerprint`` is ``payload_fingerprint(payload)``.  Each
    is computed at most once, on first use, unless
    :func:`encode_payload` assembled it already; it pickles with what
    it has, so a pool worker's encoding reaches the server.  One that
    :func:`encode_payload` built from a payload's head lacks the
    table's fields until a read needs them; then they are decoded from
    ``wire``.  Treat it as read-only: a mutation would not reach
    ``wire``."""

    __slots__ = ("_wire", "_fingerprint", "_partial")

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

    # -- the dict view of a payload built from its head ----------------------

    def _complete(self) -> None:
        """Add the fields this payload lacks, decoded from ``wire``
        with the cyclic collector paused (a decode makes no cycles)."""
        if getattr(self, "_partial", False):
            with collector_paused:
                decoded = json.loads(self._wire)
            for name, value in decoded.items():
                if not dict.__contains__(self, name):
                    dict.__setitem__(self, name, value)
            self._partial = False

    def __missing__(self, key):
        if not getattr(self, "_partial", False):
            raise KeyError(key)
        self._complete()
        return self[key]

    def get(self, key, default=None):
        if not dict.__contains__(self, key):
            self._complete()
        return dict.get(self, key, default)

    def __contains__(self, key) -> bool:
        if not dict.__contains__(self, key):
            self._complete()
        return dict.__contains__(self, key)

    def __eq__(self, other):
        self._complete()
        if isinstance(other, EncodedPayload):
            other._complete()
        return dict.__eq__(self, other)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = None

    def __reduce__(self):
        return (_restore, (dict(dict.items(self)),
                           getattr(self, "_wire", None),
                           getattr(self, "_fingerprint", None),
                           getattr(self, "_partial", False)))


def _completing(name: str):
    method = getattr(dict, name)

    def complete_first(self, *args):
        self._complete()
        return method(self, *args)

    complete_first.__name__ = name
    return complete_first


for _name in ("__iter__", "__len__", "__repr__", "keys", "items", "values",
              "copy", "pop", "popitem", "setdefault"):
    setattr(EncodedPayload, _name, _completing(_name))


def _restore(fields: dict, wire, fingerprint, partial: bool
             ) -> EncodedPayload:
    """An unpickled :class:`EncodedPayload`."""
    payload = EncodedPayload(fields)
    payload._wire = wire
    payload._fingerprint = fingerprint
    payload._partial = partial
    return payload


def encode_payload(result: AnalysisResult, payload: dict) -> EncodedPayload:
    """``payload`` (``encode_result(result)`` or ``result_head(result)``,
    optionally with a ``check`` section) with its bytes and
    fingerprint, assembled from per-substitution texts with string
    joins: each substitution's template takes the indices of its
    leaves in a leaf table numbered here in first-use order, the table
    is the distinct leaf texts in that order, and the fields go in
    sorted key order without whitespace, so ``wire`` is byte-identical
    to ``canonical_json`` of the whole payload.  The fingerprint hashes
    the inline texts of the same substitutions.  Given a head, the
    payload decodes ``entries`` and ``leaves`` from ``wire`` when they
    are first read."""
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
    fields = {name: canonical_json(value)
              for name, value in payload.items()
              if name not in _TABLE_FIELDS}
    fields["entries"] = "[" + ",".join(entries) + "]"
    fields["leaves"] = "[" + ",".join(table) + "]"
    encoded = EncodedPayload(payload)
    encoded._wire = ("{" + ",".join(
        "%s:%s" % (json.dumps(name), fields[name])
        for name in sorted(fields)) + "}").encode("utf-8")
    encoded._fingerprint = table_fingerprint(
        payload["domain"], tuples, payload["root"],
        payload["unknown_predicates"])
    encoded._partial = not all(name in payload for name in _TABLE_FIELDS)
    return encoded
