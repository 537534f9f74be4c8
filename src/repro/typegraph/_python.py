"""Python execution tier: the arena kernels as iterative worklist loops
over Python-int bitsets.

This is the no-compiler fallback and the cross-tier oracle of the C
kernels in :mod:`repro.typegraph._native`.  :mod:`repro.typegraph.arena`
imports it when the kernel tier resolves to ``python``; a process on
the native tier never loads it.  The functions below are the same
dispatch surface ``_native`` offers (``arena_le``, ``arena_union``,
``arena_intersect``, ``arena_functor``, ``arena_subgrammar``,
``normalize_dense``), and both tiers intern through the same tables,
so they return identical ``Grammar`` objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import arena
from .arena import _INTKEY_INTERN, SYMBOLS, GrammarArena, arena_of
from .grammar import ANY, INT, FuncAlt, Grammar, intern_grammar

__all__ = ["arena_le", "arena_union", "arena_intersect", "arena_functor",
           "arena_subgrammar", "normalize_dense"]


# -- normalization core ------------------------------------------------------

def _nonempty_bits(any_f: List[bool], int_f: List[bool],
                   funcs: List[list], n: int) -> int:
    """Nonempty bitset (worklist with per-alternative counters;
    duplicate argument occurrences register the cell once per
    occurrence and count once per occurrence, so they balance)."""
    nonempty = 0
    waiting: Dict[int, list] = {}
    stack: List[int] = []
    for i in range(n):
        if any_f[i] or int_f[i]:
            nonempty |= 1 << i
            stack.append(i)
            continue
        for sym, arg_idx in funcs[i]:
            if not arg_idx:
                if not (nonempty >> i) & 1:
                    nonempty |= 1 << i
                    stack.append(i)
                break
            cell = [i, len(arg_idx)]
            for a in arg_idx:
                waiting.setdefault(a, []).append(cell)
    while stack:
        proved = stack.pop()
        for cell in waiting.get(proved, ()):
            cell[1] -= 1
            if cell[1] == 0 and not (nonempty >> cell[0]) & 1:
                nonempty |= 1 << cell[0]
                stack.append(cell[0])
    return nonempty


def normalize_dense(any_f: List[bool], int_f: List[bool],
                    funcs: List[list], root_i: int,
                    max_or_width: Optional[int],
                    prune: bool = True) -> Grammar:
    """Normalization over dense arrays (see
    :func:`repro.typegraph.arena._normalize_dense`).  Mutates the
    argument lists in place."""
    n = len(any_f)
    is_literal = SYMBOLS.is_literal

    if prune:
        # 1. nonempty pass
        nonempty = _nonempty_bits(any_f, int_f, funcs, n)
    all_mask = (1 << n) - 1

    # 2+3. prune empty references, absorb, cap or-width
    for i in range(n):
        row = funcs[i]
        if prune and nonempty != all_mask:
            kept = []
            for sym, arg_idx in row:
                ok = True
                for a in arg_idx:
                    if not (nonempty >> a) & 1:
                        ok = False
                        break
                if ok:
                    kept.append((sym, arg_idx))
        else:
            kept = row if isinstance(row, list) else list(row)
        has_any = any_f[i]
        has_int = int_f[i]
        if has_any and (has_int or kept):
            has_int = False
            kept = []
        elif has_int:
            kept = [(sym, arg_idx) for sym, arg_idx in kept
                    if not is_literal[sym]]
        if max_or_width is not None and \
                (has_any + has_int + len(kept)) > max_or_width:
            has_any, has_int, kept = True, False, []
        any_f[i] = has_any
        int_f[i] = has_int
        funcs[i] = kept

    # 4. partition refinement to the coarsest bisimulation — identical
    #    partition to the reference walk (the coarsest
    #    signature-stable partition is unique; any fair split order
    #    reaches it).  Split-based with a dirty-class worklist: only
    #    classes containing a node whose successors were relabelled
    #    recompute signatures, instead of re-signing every node every
    #    round.  An alternative's signature is a flat
    #    ``(code, digits)`` pair: ``digits`` packs the arg classes as
    #    base-(n+1) positional digits (each >= 1), and ``code`` fixes
    #    the symbol hence the arity, so the pair is injective — and
    #    far cheaper to hash than variable-length nested tuples.
    #    (ANY -> code 0, INT -> 1, functor sym -> s + 2.)
    classes = _refine_classes(any_f, int_f, funcs, n)
    representative: Dict[int, int] = {}
    for i in range(n):
        representative.setdefault(classes[i], i)
    cmap = [representative[c] for c in classes]
    return _renumber_and_intern(any_f, int_f, funcs, cmap, root_i)


def _refine_classes(any_f: List[bool], int_f: List[bool],
                    funcs: List[list], n: int) -> List[int]:
    classes = [0] * n
    if n > 1:
        shapes: List[list] = [None] * n
        preds: List[list] = [[] for _ in range(n)]
        for i in range(n):
            parts = []
            if any_f[i]:
                parts.append((0, ()))
            if int_f[i]:
                parts.append((1, ()))
            for sym, arg_idx in funcs[i]:
                parts.append((sym + 2, arg_idx))
                for a in arg_idx:
                    preds[a].append(i)
            shapes[i] = parts
        base = n + 1
        members: Dict[int, List[int]] = {0: list(range(n))}
        next_class = 1
        pending = {0}
        while pending:
            cls = pending.pop()
            group = members[cls]
            if len(group) <= 1:
                continue
            sig_groups: Dict[tuple, list] = {}
            for i in group:
                row = []
                for code, arg_idx in shapes[i]:
                    digits = 0
                    for a in arg_idx:
                        digits = digits * base + classes[a] + 1
                    row.append((code, digits))
                if len(row) > 1:
                    row.sort()
                sig_groups.setdefault(tuple(row), []).append(i)
            if len(sig_groups) == 1:
                continue
            # the largest part keeps the label; relabelled nodes make
            # their predecessors' classes dirty
            parts_by_size = sorted(sig_groups.values(), key=len,
                                   reverse=True)
            members[cls] = parts_by_size[0]
            for part in parts_by_size[1:]:
                label = next_class
                next_class += 1
                members[label] = part
                for i in part:
                    classes[i] = label
                for i in part:
                    for pred in preds[i]:
                        pending.add(classes[pred])
    return classes


def _renumber_and_intern(any_f: List[bool], int_f: List[bool],
                         funcs: List[list], cmap: List[int],
                         root_i: int) -> Grammar:
    """Steps 5–6 of :func:`normalize_dense`: canonical BFS
    renumbering, the intern probe, and the fused arena build."""
    # 5. BFS renumbering from the root's class, alternatives visited in
    #    canonical fkey order (ANY/INT have no children, so only the
    #    functor alternatives drive the numbering)
    fkeys = SYMBOLS.fkeys
    start = cmap[root_i]
    number = {start: 0}
    order = [start]
    qi = 0
    merged: Dict[int, list] = {}
    while qi < len(order):
        i = order[qi]
        qi += 1
        seen_alts = set()
        alts = []
        for sym, arg_idx in funcs[i]:
            mapped = tuple(cmap[a] for a in arg_idx)
            entry = (sym, mapped)
            if entry in seen_alts:  # class-mapping can merge duplicates
                continue
            seen_alts.add(entry)
            alts.append((fkeys[sym], sym, mapped))
        alts.sort()
        merged[i] = alts
        for _, _, mapped in alts:
            for child in mapped:
                if child not in number:
                    number[child] = len(number)
                    order.append(child)

    # 6. probe the int-keyed intern index before building any objects:
    #    the canonical numbering and per-node fkey-sorted rows make the
    #    flat int encoding below a deterministic function of the
    #    grammar's structure, so a repeat normalization returns the
    #    canonical instance without constructing a single FuncAlt,
    #    frozenset, or structural hash.
    out_n = len(number)
    flat: List[int] = [out_n]
    renumbered: List[tuple] = [None] * out_n
    for i, new_nt in number.items():
        rows = []
        for fkey, sym, mapped in merged[i]:
            renum = tuple(number[c] for c in mapped)
            rows.append((fkey, sym, renum))
        renumbered[new_nt] = (i, rows)
    for new_nt in range(out_n):
        i, rows = renumbered[new_nt]
        flat.append((1 if any_f[i] else 0) | (2 if int_f[i] else 0))
        flat.append(len(rows))
        for _, sym, renum in rows:
            flat.append(sym)
            flat.extend(renum)
    int_key = tuple(flat)
    cached_grammar = _INTKEY_INTERN.get(int_key)
    if cached_grammar is not None:
        return cached_grammar

    # build the final Grammar once (plus its arena, for free)
    final: Dict[int, frozenset] = {}
    out_any = 0
    out_int = 0
    out_syms: List[tuple] = [()] * out_n
    out_args: List[tuple] = [()] * out_n
    out_by: List[dict] = [None] * out_n
    key_items: List[tuple] = [None] * out_n
    for new_nt in range(out_n):
        i, rows = renumbered[new_nt]
        alt_objs: List[object] = []
        if any_f[i]:
            alt_objs.append(ANY)
            out_any |= 1 << new_nt
        if int_f[i]:
            alt_objs.append(INT)
            out_int |= 1 << new_nt
        for fkey, sym, renum in rows:
            alt_objs.append(FuncAlt(fkey[1], renum, fkey[0] == "i"))
        out_syms[new_nt] = tuple(sym for _, sym, _ in rows)
        out_args[new_nt] = tuple(renum for _, _, renum in rows)
        out_by[new_nt] = {sym: renum for _, sym, renum in rows}
        key_items[new_nt] = (new_nt, tuple(alt_objs))
        final[new_nt] = frozenset(alt_objs)
    raw = Grammar(final, 0)
    # alt_objs is already in _alt_sort_key order (ANY, INT, functors in
    # fkey order) and nts are dense from 0, so the structural key can be
    # assembled here without re-sorting the frozensets.
    raw._key_cache = (0, tuple(key_items))
    grammar = intern_grammar(raw)
    if grammar._arena is None:
        arena._COMPILES += 1  # fused compile: the arrays are already flat
        grammar._arena = GrammarArena(
            out_n, out_any, out_int, tuple(out_syms), tuple(out_args),
            tuple(out_by))
    _INTKEY_INTERN[int_key] = grammar
    return grammar


# -- inclusion ---------------------------------------------------------------

def arena_le(g1: Grammar, g2: Grammar) -> bool:
    a1 = arena_of(g1)
    a2 = arena_of(g2)
    any1, int1 = a1.any_mask, a1.int_mask
    any2, int2 = a2.any_mask, a2.int_mask
    n2 = a2.n
    is_literal = SYMBOLS.is_literal
    r1 = a1.index_of(g1.root)
    r2 = a2.index_of(g2.root)
    seen = {r1 * n2 + r2}
    stack = [(r1, r2)]
    syms1, args1, by2 = a1.syms, a1.args, a2.by_sym
    while stack:
        i, j = stack.pop()
        if (any2 >> j) & 1:
            continue  # ANY on the right covers everything below
        if (any1 >> i) & 1:
            return False  # nothing but ANY covers all terms
        has_int = (int2 >> j) & 1
        if (int1 >> i) & 1 and not has_int:
            return False
        row = by2[j]
        for sym, arg_tuple in zip(syms1[i], args1[i]):
            if has_int and is_literal[sym]:
                continue
            other = row.get(sym)
            if other is None:
                return False
            for c1, c2 in zip(arg_tuple, other):
                key = c1 * n2 + c2
                if key not in seen:
                    seen.add(key)
                    stack.append((c1, c2))
    return True


# -- union -------------------------------------------------------------------

def arena_union(g1: Grammar, g2: Grammar,
                max_or_width: Optional[int]) -> Grammar:
    a1 = arena_of(g1)
    a2 = arena_of(g2)
    n1, n2 = a1.n, a2.n
    base = n1 * n2          # keys < base: merged pairs i * n2 + j
    base_r = base + n1      # then n1 left-embed keys, n2 right-embed
    is_literal = SYMBOLS.is_literal
    ids: Dict[int, int] = {}
    any_f: List[int] = []
    int_f: List[int] = []
    funcs: List[list] = []
    work: List[int] = []

    def nid(key: int) -> int:
        i = ids.get(key)
        if i is None:
            i = len(ids)
            ids[key] = i
            any_f.append(0)
            int_f.append(0)
            funcs.append(())
            work.append(key)
        return i

    root = nid(a1.index_of(g1.root) * n2 + a2.index_of(g2.root))
    while work:
        key = work.pop()
        slot = ids[key]
        if key >= base_r:                       # embedded from g2
            j = key - base_r
            any_f[slot] = (a2.any_mask >> j) & 1
            int_f[slot] = (a2.int_mask >> j) & 1
            funcs[slot] = [
                (sym, tuple(nid(base_r + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a2.syms[j], a2.args[j])]
            continue
        if key >= base:                         # embedded from g1
            i = key - base
            any_f[slot] = (a1.any_mask >> i) & 1
            int_f[slot] = (a1.int_mask >> i) & 1
            funcs[slot] = [
                (sym, tuple(nid(base + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a1.syms[i], a1.args[i])]
            continue
        i, j = divmod(key, n2)
        if ((a1.any_mask >> i) & 1) or ((a2.any_mask >> j) & 1):
            any_f[slot] = 1
            funcs[slot] = []
            continue
        has_int = ((a1.int_mask >> i) & 1) or ((a2.int_mask >> j) & 1)
        int_f[slot] = has_int
        by1, by2 = a1.by_sym[i], a2.by_sym[j]
        row = []
        for sym, arg_tuple in by1.items():
            if has_int and is_literal[sym]:
                continue
            other = by2.get(sym)
            if other is not None:
                row.append((sym, tuple(
                    nid(c1 * n2 + c2)
                    for c1, c2 in zip(arg_tuple, other))))
            else:
                row.append((sym, tuple(nid(base + c)
                                       for c in arg_tuple)))
        for sym, arg_tuple in by2.items():
            if sym in by1 or (has_int and is_literal[sym]):
                continue
            row.append((sym, tuple(nid(base_r + c)
                                   for c in arg_tuple)))
        funcs[slot] = row
    # Union cannot create empty nonterminals from normalized operands.
    return normalize_dense(any_f, int_f, funcs, root, max_or_width,
                           prune=False)


# -- intersection ------------------------------------------------------------

def arena_intersect(g1: Grammar, g2: Grammar,
                    max_or_width: Optional[int]) -> Grammar:
    a1 = arena_of(g1)
    a2 = arena_of(g2)
    n1, n2 = a1.n, a2.n
    base = n1 * n2
    base_r = base + n1
    is_literal = SYMBOLS.is_literal
    ids: Dict[int, int] = {}
    any_f: List[int] = []
    int_f: List[int] = []
    funcs: List[list] = []
    work: List[int] = []

    def nid(key: int) -> int:
        i = ids.get(key)
        if i is None:
            i = len(ids)
            ids[key] = i
            any_f.append(0)
            int_f.append(0)
            funcs.append(())
            work.append(key)
        return i

    root = nid(a1.index_of(g1.root) * n2 + a2.index_of(g2.root))
    while work:
        key = work.pop()
        slot = ids[key]
        if key >= base_r:                       # embedded from g2
            j = key - base_r
            any_f[slot] = (a2.any_mask >> j) & 1
            int_f[slot] = (a2.int_mask >> j) & 1
            funcs[slot] = [
                (sym, tuple(nid(base_r + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a2.syms[j], a2.args[j])]
            continue
        if key >= base:                         # embedded from g1
            i = key - base
            any_f[slot] = (a1.any_mask >> i) & 1
            int_f[slot] = (a1.int_mask >> i) & 1
            funcs[slot] = [
                (sym, tuple(nid(base + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a1.syms[i], a1.args[i])]
            continue
        i, j = divmod(key, n2)
        if (a1.any_mask >> i) & 1:              # Any ∩ x = x
            any_f[slot] = (a2.any_mask >> j) & 1
            int_f[slot] = (a2.int_mask >> j) & 1
            funcs[slot] = [
                (sym, tuple(nid(base_r + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a2.syms[j], a2.args[j])]
            continue
        if (a2.any_mask >> j) & 1:
            any_f[slot] = (a1.any_mask >> i) & 1
            int_f[slot] = (a1.int_mask >> i) & 1
            funcs[slot] = [
                (sym, tuple(nid(base + c) for c in arg_tuple))
                for sym, arg_tuple in zip(a1.syms[i], a1.args[i])]
            continue
        int1 = (a1.int_mask >> i) & 1
        int2 = (a2.int_mask >> j) & 1
        by1, by2 = a1.by_sym[i], a2.by_sym[j]
        row = []
        for sym, arg_tuple in by1.items():
            other = by2.get(sym)
            if other is None:
                continue
            row.append((sym, tuple(nid(c1 * n2 + c2)
                                   for c1, c2 in zip(arg_tuple, other))))
        if int2 and not int1:   # literals of g1 ∩ INT = those literals
            for sym in by1:
                if is_literal[sym] and sym not in by2:
                    row.append((sym, ()))
        if int1 and not int2:
            for sym in by2:
                if is_literal[sym] and sym not in by1:
                    row.append((sym, ()))
        int_f[slot] = int1 and int2
        funcs[slot] = row
    return normalize_dense(any_f, int_f, funcs, root, max_or_width)


# -- functor constructor -----------------------------------------------------

def arena_functor(name: str, children: Tuple[Grammar, ...],
                  max_or_width: Optional[int]) -> Grammar:
    any_f: List[int] = [0]
    int_f: List[int] = [0]
    funcs: List[list] = [()]
    offset = 1
    child_roots = []
    for child in children:
        child_arena = arena_of(child)
        child_roots.append(offset + child_arena.index_of(child.root))
        any_mask = child_arena.any_mask
        int_mask = child_arena.int_mask
        for i in range(child_arena.n):
            any_f.append((any_mask >> i) & 1)
            int_f.append((int_mask >> i) & 1)
            funcs.append([
                (sym, tuple(offset + c for c in arg_tuple))
                for sym, arg_tuple in zip(child_arena.syms[i],
                                          child_arena.args[i])])
        offset += child_arena.n
    funcs[0] = [(SYMBOLS.sym("f", name, len(children)),
                 tuple(child_roots))]
    # A normalized grammar is either bottom or empty-free, so the
    # nonempty pass is only needed when some child is bottom (then the
    # root's alternative must be pruned, making the result bottom).
    prune = any(child.is_bottom() for child in children)
    return normalize_dense(any_f, int_f, funcs, 0, max_or_width,
                           prune=prune)


# -- subgrammar --------------------------------------------------------------

def arena_subgrammar(grammar: Grammar, nt: int) -> Grammar:
    grammar_arena = arena_of(grammar)
    start = grammar_arena.index_of(nt)
    number = {start: 0}
    order = [start]
    qi = 0
    while qi < len(order):
        i = order[qi]
        qi += 1
        for arg_tuple in grammar_arena.args[i]:  # canonical order
            for child in arg_tuple:
                if child not in number:
                    number[child] = len(number)
                    order.append(child)
    fkeys = SYMBOLS.fkeys
    final: Dict[int, frozenset] = {}
    for i, new_nt in number.items():
        alts: List[object] = []
        if (grammar_arena.any_mask >> i) & 1:
            alts.append(ANY)
        if (grammar_arena.int_mask >> i) & 1:
            alts.append(INT)
        for sym, arg_tuple in zip(grammar_arena.syms[i],
                                  grammar_arena.args[i]):
            kind, name, _ = fkeys[sym]
            alts.append(FuncAlt(name,
                                tuple(number[c] for c in arg_tuple),
                                kind == "i"))
        final[new_nt] = frozenset(alts)
    return intern_grammar(Grammar(final, 0))
