"""The widening operator on type graphs (§7) — the paper's key
technical contribution.

``g_widen(g_old, g_new)`` implements Definition 7.6::

    go V gn = go                      if gn <= go
              widen(go, go U gn)     otherwise

``widen`` repeatedly applies the two transformation rules until no
widening clash can be resolved:

* **cycle introduction** (TRi, Definition 7.4): when a corresponding
  or-vertex of ``gn`` has grown w.r.t. ``go`` and has an ancestor
  ``va`` with ``va >= vn``, the tree edge into ``vn`` is redirected to
  ``va`` — the append example turning ``[] | cons(Any, [] | ...)`` into
  ``T ::= [] | cons(Any, T)``;

* **vertex replacement** (TRr, Definition 7.5): when the candidate
  ancestor is *not* an upper bound of the clashing vertex, it is
  replaced by an upper bound of both, accepted only if the graph
  shrinks (otherwise the ancestor becomes Any, which always shrinks).

When neither rule applies the graph is allowed to grow — that growth
adds a new pf-set along the branch, which is what makes the whole
operator a widening (Theorem 7.1).

This module holds the operator's entry point and its memo.  The native
tier runs the whole transformation loop in C; everywhere else (the
python kernel tier, the arena kernels off, raw operands, a type
database) it runs in :mod:`repro.typegraph.widenloop`, which this
module imports on first use, so a native-tier analysis never loads the
loop or the graph view it works on.

``g_widen`` also implements the extension the paper's conclusion
proposes: an optional **type database** consulted when a vertex must be
replaced — instead of collapsing a clashing region to Any, the smallest
database type covering it is grafted (e.g. "list of Any" for an
overgrown list region).  See :func:`g_widen`'s ``type_database``.
"""

from __future__ import annotations

from typing import List, Optional

from .._lazy import LazyModule
from . import arena, opcache
from .grammar import Grammar
from .ops import g_le

__all__ = ["g_widen"]

#: The Python transformation loop, imported on first use.
_LOOP = LazyModule("repro.typegraph.widenloop")


def g_widen(g_old: Grammar, g_new: Grammar,
            max_or_width: Optional[int] = None,
            strict: bool = True,
            type_database: Optional[List[Grammar]] = None) -> Grammar:
    """``g_old V g_new`` (Definition 7.6).

    ``strict=False`` skips the destructive replacement fallback (see
    :func:`repro.typegraph.widenloop._try_replacement`); callers using
    gentle mode must escalate to strict eventually to guarantee
    stabilization.

    ``type_database`` (§10's extension) supplies well-known types
    (e.g. list of Any, character codes) to graft instead of Any when a
    replacement must shrink the graph.
    """
    if g_new.is_bottom() or g_le(g_new, g_old):
        return g_old
    if g_old.interned and g_new.interned:
        db_key = (None if type_database is None
                  else tuple(g.gid if g.interned else g
                             for g in type_database))
        return opcache.cached(
            "g_widen", (g_old.gid, g_new.gid, max_or_width, strict, db_key),
            lambda: _g_widen_impl(g_old, g_new, max_or_width, strict,
                                  type_database))
    return _g_widen_impl(g_old, g_new, max_or_width, strict,
                         type_database)


def _g_widen_impl(g_old: Grammar, g_new: Grammar,
                  max_or_width: Optional[int],
                  strict: bool,
                  type_database: Optional[List[Grammar]]) -> Grammar:
    if (type_database is None and arena.enabled()
            and arena.NATIVE is not None
            and g_old.interned and g_new.interned):
        # The compiled tier runs the whole transformation loop —
        # unfold, clash scan, TRi/TRr, renormalize — and interns each
        # iterate through the same tables, so the result is the
        # identical object the Python loop would build.  The
        # type-database extension stays on the Python path.
        return arena.NATIVE.g_widen(g_old, g_new, max_or_width, strict)
    return _LOOP.widen(g_old, g_new, max_or_width, strict, type_database)
