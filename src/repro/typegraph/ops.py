"""Operations on type grammars: inclusion, union, intersection, split.

These are the three operations of §6.9 (plus ``g_split``, the
unification helper used by ``Pat(Type)``).  On deterministic grammars
with empties pruned:

* ``g_le`` is *exact* inclusion (simulation between deterministic
  top-down automata);
* ``g_intersect`` is exact (product construction);
* ``g_union`` is the most precise union satisfying the principal
  functor restriction — same-functor alternatives are merged pointwise,
  which is where deterministic top-down automata lose expressiveness
  (§6.7's f(a,b)/f(b,a) example).
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import arena, opcache
from .grammar import (FuncAlt, Grammar, GrammarBuilder, _embed, g_any,
                      g_bottom, normalize, subgrammar)

__all__ = ["g_le", "g_equiv", "g_union", "g_intersect", "g_split",
           "g_list_of", "g_is_list"]

#: Open-coded memo tables for the two hottest operations (the generic
#: :func:`repro.typegraph.opcache.cached` helper allocates a closure
#: per call, which shows up at these call rates).
_LE_CACHE = opcache.cache_for("g_le")
_UNION_CACHE = opcache.cache_for("g_union")


# -- inclusion --------------------------------------------------------------

def g_le(g1: Grammar, g2: Grammar) -> bool:
    """``Cc(g1) <= Cc(g2)`` — exact on normalized grammars.

    Memoized on interned operand identities (see
    :mod:`repro.typegraph.opcache`); ``g1 is g2`` is free.  A raw
    operand is normalized first, as in every operation here.
    """
    if g1 is g2:
        return True
    if not (g1.interned and g2.interned):
        g1, g2 = normalize(g1), normalize(g2)
    key = (g1.gid, g2.gid)
    value = _LE_CACHE.get(key)
    if value is None:
        if g1.is_bottom():
            value = True
        elif g2.is_bottom():
            value = False
        else:
            value = arena.arena_le(g1, g2)
        _LE_CACHE.put(key, value)
    return value


def g_equiv(g1: Grammar, g2: Grammar) -> bool:
    """Denotation equality."""
    return g_le(g1, g2) and g_le(g2, g1)


# -- union ------------------------------------------------------------------

def g_union(g1: Grammar, g2: Grammar,
            max_or_width: Optional[int] = None) -> Grammar:
    """Upper bound; exact union when principal functors are disjoint,
    pointwise-merged otherwise (principal functor restriction).

    Memoized on interned operand identities.
    """
    if not (g1.interned and g2.interned):
        g1, g2 = normalize(g1), normalize(g2)
    if g1.is_bottom():
        return normalize(g2, max_or_width)
    if g2.is_bottom() or g1 is g2:
        return normalize(g1, max_or_width)
    key = (g1.gid, g2.gid, max_or_width)
    value = _UNION_CACHE.get(key)
    if value is None:
        # Comparable operands: the pointwise merge of a <= b is b —
        # every reachable product pair mirrors an inclusion pair, so
        # the construction rebuilds b node for node and normalization
        # folds the copies back onto b.  An iterative pair walk is far
        # cheaper than product construction + normalization.
        if g_le(g1, g2):
            value = normalize(g2, max_or_width)
        elif g_le(g2, g1):
            value = normalize(g1, max_or_width)
        else:
            value = arena.arena_union(g1, g2, max_or_width)
        _UNION_CACHE.put(key, value)
    return value


# -- intersection -----------------------------------------------------------

def g_intersect(g1: Grammar, g2: Grammar,
                max_or_width: Optional[int] = None) -> Grammar:
    """Exact intersection (product of deterministic automata).

    Memoized on interned operand identities.
    """
    if not (g1.interned and g2.interned):
        g1, g2 = normalize(g1), normalize(g2)
    if g1.is_bottom() or g2.is_bottom():
        return g_bottom()
    # The fast paths still apply the or-width cap, like every other
    # operation (a cap-violating operand must not leak through).
    if g1.is_any():
        return normalize(g2, max_or_width)
    if g2.is_any() or g1 is g2:
        return normalize(g1, max_or_width)
    return opcache.cached(
        "g_intersect", (g1.gid, g2.gid, max_or_width),
        lambda: _g_intersect_impl(g1, g2, max_or_width))


def _g_intersect_impl(g1: Grammar, g2: Grammar,
                      max_or_width: Optional[int]) -> Grammar:
    # Comparable operands: a <= b makes the product rebuild a (see the
    # union shortcut; exact intersection of comparable languages is the
    # smaller one, node for node).
    if g_le(g1, g2):
        return normalize(g1, max_or_width)
    if g_le(g2, g1):
        return normalize(g2, max_or_width)
    return arena.arena_intersect(g1, g2, max_or_width)


# -- split (unification helper) ----------------------------------------------

def g_split(grammar: Grammar, name: str, arity: int,
            is_int: bool = False) -> Optional[Tuple[Grammar, ...]]:
    """Restrict ``grammar`` to terms with principal functor
    ``name/arity`` and return the argument types, or None if no term of
    the type has that functor.

    Used by abstract unification ``X = f(X1..Xn)`` in Pat(Type): the
    type of each ``Xi`` becomes the i-th returned grammar.
    """
    if not grammar.interned:
        grammar = normalize(grammar)
    grammar_arena = arena.arena_of(grammar)
    if grammar_arena.any_mask & 1:
        return tuple(g_any() for _ in range(arity))
    if is_int and grammar_arena.int_mask & 1:
        return ()
    args = grammar_arena.by_sym[0].get(
        arena.SYMBOLS.find("i" if is_int else "f", name, arity))
    if args is None:
        return None
    return tuple(subgrammar(grammar, a) for a in args)


# -- convenience types --------------------------------------------------------

def g_list_of(element: Grammar) -> Grammar:
    """The proper-list type ``T ::= [] | '.'(element, T)``."""
    builder = GrammarBuilder()
    root = builder.fresh()
    elem_nt = _embed(builder, element)
    builder.add(root, FuncAlt("[]"))
    builder.add(root, FuncAlt(".", (elem_nt, root)))
    return builder.finish(root)


def g_is_list(grammar: Grammar) -> bool:
    """Is every term of the type a proper list?"""
    return g_le(grammar, g_list_of(g_any()))
