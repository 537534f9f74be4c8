"""One pause of the cyclic garbage collector, shared by every thread.

A bulk JSON decode builds tens of thousands of containers at once: a
KA payload decodes into ~26k of them, more than a client's whole
tracked heap.  Each allocation threshold it crosses starts a
collection, and each collection walks the heap the decode is building,
finding nothing, since decoded JSON holds no cycles.  A fresh analysis
is the same: it leaves almost no cyclic garbage.  So both run inside
:data:`collector_paused`::

    with collector_paused:
        message = json.loads(line)

Objects still die by refcount while the collector is paused.

The pause is reentrant across threads: a count under a lock.  The
first pause to open records whether the collector was on and switches
it off; the last one to close restores exactly that state.  So a
decode on one thread never switches the collector back on under an
analysis running on another, as a plain ``isenabled``/``disable``/
``enable`` pair around each would.  A caller that switches the
collector off itself (the one-shot CLI) keeps it off.
"""

from __future__ import annotations

import gc
import threading

__all__ = ["collector_paused"]


class _CollectorPause:
    """The context manager behind :data:`collector_paused`."""

    __slots__ = ("_lock", "_depth", "_resume")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: how many pauses are open, over all threads
        self._depth = 0
        #: whether the collector was on when the first of them opened
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth:
                (gc.enable if self._resume else gc.disable)()


#: The process's one collector pause.
collector_paused = _CollectorPause()
