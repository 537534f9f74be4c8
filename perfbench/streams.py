"""Seeded inputs: the program corpus, edits, and per-pass op streams.

Every workload is a sequence of *passes*; each pass touches every
program of the corpus, so each pass does the same mix of work whatever
the seed, and the seed only changes order and edit text.  The program
under test sees nothing but the files and requests built here.

An edit appends a fact for a fresh predicate that nothing calls.  The
program hash changes, so a server must re-analyze it, but the analysis
table does not: the oracle fingerprint and iteration counts of the
unedited program still hold.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional

#: The ten programs of the paper's Table 1, in Table 3 order.
TABLE1 = ("KA", "QU", "PR", "PE", "CS", "DS", "PG", "RE", "BR", "PL")

#: The annotated assertion-checking program (three assertions hold,
#: ``tag/1`` is violated).
CHECK_PROGRAM = "CHK"


def edit_clause(tag: str) -> str:
    return "zz_perfbench_%s(1).\n" % tag


def edited(source: str, tag: Optional[str]) -> str:
    """``source`` with the edit named ``tag`` appended (None: as is)."""
    if tag is None:
        return source
    return source.rstrip("\n") + "\n" + edit_clause(tag)


def _rng(seed: int, *parts) -> random.Random:
    return random.Random("%d:%s" % (seed, ":".join(map(str, parts))))


def _tag(rng: random.Random, seed: int, *parts) -> str:
    return "s%d_%s_%08x" % (seed, "_".join(map(str, parts)),
                            rng.getrandbits(32))


def op(program: str, kind: str, cls: str, edit: Optional[str]) -> dict:
    """One operation: ``kind`` is what is sent (``analyze`` or
    ``check``), ``cls`` the latency class it is reported under
    (``read``: a version seen before; ``edit``: a new version;
    ``check``: assertion checking), ``edit`` the version's tag."""
    return {"program": program, "kind": kind, "cls": cls, "edit": edit}


def cold_passes(seed: int) -> Iterator[List[dict]]:
    """corpus-cold: one CLI call per program per pass.  Each program
    alternates between its committed text and a fresh edit, so every
    pass analyzes half the corpus as new versions."""
    index = 0
    while True:
        rng = _rng(seed, "cold", index)
        order = list(TABLE1) + [CHECK_PROGRAM]
        rng.shuffle(order)
        ops = []
        for name in order:
            if name == CHECK_PROGRAM:
                ops.append(op(name, "check", "check",
                              _tag(rng, seed, "c", index)))
                continue
            fresh = (index + TABLE1.index(name) + seed) % 2 == 1
            tag = _tag(rng, seed, "c", index) if fresh else None
            ops.append(op(name, "analyze", "edit" if fresh else "read",
                          tag))
        yield ops
        index += 1


def serve_passes(seed: int) -> Iterator[List[dict]]:
    """serve-edit: every program is edited and re-analyzed, then every
    current version is read back; one CHK edit is checked per pass."""
    index = 0
    while True:
        rng = _rng(seed, "serve", index)
        edits = list(TABLE1)
        rng.shuffle(edits)
        tags = {name: _tag(rng, seed, "e", index) for name in edits}
        reads = list(TABLE1)
        rng.shuffle(reads)
        ops = [op(name, "analyze", "edit", tags[name]) for name in edits]
        ops += [op(name, "analyze", "read", tags[name]) for name in reads]
        ops.insert(rng.randrange(len(ops) + 1),
                   op(CHECK_PROGRAM, "check", "check",
                      _tag(rng, seed, "e", index)))
        yield ops
        index += 1


def router_passes(seed: int, client: int) -> Iterator[List[dict]]:
    """router-read: one client's stream.  Each pass reads the current
    version of every program, except one program per pass (rotating,
    so each is edited equally often) which is edited instead."""
    current: Dict[str, Optional[str]] = {name: None for name in TABLE1}
    offset = _rng(seed, "router", client).randrange(len(TABLE1))
    index = 0
    while True:
        rng = _rng(seed, "router", client, index)
        order = list(TABLE1)
        rng.shuffle(order)
        target = TABLE1[(index + offset) % len(TABLE1)]
        ops = []
        for name in order:
            if name == target:
                current[name] = _tag(rng, seed, "r", client, index)
                ops.append(op(name, "analyze", "edit", current[name]))
            else:
                ops.append(op(name, "analyze", "read", current[name]))
        yield ops
        index += 1
