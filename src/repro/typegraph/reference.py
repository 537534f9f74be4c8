"""Grammar-level reference implementations of the type-graph
operations: inclusion, union, intersection and normalization written
directly over ``Grammar``/``FuncAlt`` objects.

They are the oracle the arena kernels are checked against
(``tests/test_arena_properties.py``), the path every operation takes
under ``arena.configure(enabled=False)``, and the fallback for raw
(non-interned) operands such as the widening's vertex-view grammars.
:mod:`repro.typegraph.ops` and :mod:`repro.typegraph.grammar` reach
this module through a stand-in that imports it on first use, so a
process that only ever meets interned grammars on the arena path never
loads it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Tuple

from .grammar import (ANY, INT, Alt, FuncAlt, Grammar, GrammarBuilder,
                      _alt_sort_key, _within_width, intern_grammar)

__all__ = ["g_le_reference", "g_union_reference",
           "g_intersect_reference", "normalize_reference",
           "nonempty_nonterminals"]


# -- normalization ----------------------------------------------------------

def nonempty_nonterminals(rules: Dict[int, FrozenSet[Alt]]) -> set:
    """Least fixpoint of "has at least one finite tree".

    Worklist formulation: each functor alternative tracks how many of
    its argument nonterminals are still unproven; proving a
    nonterminal decrements the counters of the alternatives waiting on
    it.  Linear in the grammar size, replacing the quadratic
    restart-the-scan loop.
    """
    nonempty: set = set()
    # waiting[nt] = list of counter cells for alternatives blocked on nt
    waiting: Dict[int, List[List]] = {}
    queue: deque = deque()
    for nt, alts in rules.items():
        for alt in alts:
            if alt is ANY or alt is INT:
                if nt not in nonempty:
                    nonempty.add(nt)
                    queue.append(nt)
                break
        else:
            for alt in alts:
                assert isinstance(alt, FuncAlt)
                pending = set(alt.args)
                if not pending:
                    if nt not in nonempty:
                        nonempty.add(nt)
                        queue.append(nt)
                    break
                cell = [nt, len(pending)]
                for arg in pending:
                    waiting.setdefault(arg, []).append(cell)
    while queue:
        proved = queue.popleft()
        for cell in waiting.get(proved, ()):
            cell[1] -= 1
            if cell[1] == 0 and cell[0] not in nonempty:
                nonempty.add(cell[0])
                queue.append(cell[0])
    return nonempty


def _absorb(alts: FrozenSet[Alt]) -> FrozenSet[Alt]:
    if ANY in alts and len(alts) > 1:
        return frozenset([ANY])
    if INT in alts:
        return frozenset(a for a in alts
                         if not (isinstance(a, FuncAlt) and a.is_int))
    return alts


def normalize_reference(grammar: Grammar,
                        max_or_width: Optional[int] = None) -> Grammar:
    """The original object-walking normalization, kept as the
    reference path (``arena.configure(enabled=False)``) and as the
    oracle the arena property tests compare against."""
    if grammar.interned and (max_or_width is None
                             or _within_width(grammar, max_or_width)):
        return grammar
    rules = dict(grammar.rules)
    root = grammar.root

    # 1. prune empty nonterminals and the alternatives mentioning them
    nonempty = nonempty_nonterminals(rules)
    pruned: Dict[int, FrozenSet[Alt]] = {}
    for nt, alts in rules.items():
        kept = []
        for alt in alts:
            if isinstance(alt, FuncAlt) and \
                    any(a not in nonempty for a in alt.args):
                continue
            kept.append(alt)
        pruned[nt] = _absorb(frozenset(kept))

    # 2. or-width cap: an or-vertex with too many successors becomes Any
    #    (Table 3's "(5)" and "(2)" restriction, §9)
    if max_or_width is not None:
        for nt, alts in pruned.items():
            if len(alts) > max_or_width:
                pruned[nt] = frozenset([ANY])

    # 3. merge bisimilar nonterminals by partition refinement: start
    #    with one class and split by signature until stable.  For
    #    deterministic grammars bisimilarity implies language equality,
    #    so merging is sound and keeps graphs small (handles mutually
    #    recursive copies, not just acyclic sharing).  Signatures hash
    #    a precomputed static part (functor keys, sorted once) with
    #    the per-round argument classes; refinement only ever splits,
    #    so the loop stops as soon as the class count stops growing,
    #    and immediately when every nonterminal sits alone.
    order = sorted(pruned)
    # static per-nt shape: (functor prefix, raw arg nts) per alternative
    shapes: Dict[int, List[Tuple[tuple, Tuple[int, ...]]]] = {}
    for nt in order:
        sig_alts = []
        for alt in pruned[nt]:
            if isinstance(alt, FuncAlt):
                sig_alts.append((("F",) + alt.fkey, alt.args))
            else:
                sig_alts.append((("ANY",) if alt is ANY else ("INT",), ()))
        shapes[nt] = sig_alts
    classes: Dict[int, int] = {nt: 0 for nt in pruned}
    num_classes = 1
    while num_classes < len(order):
        signature_ids: Dict[tuple, int] = {}
        new_classes: Dict[int, int] = {}
        for nt in order:
            sig = (classes[nt],) + tuple(sorted(
                static + (tuple(classes[a] for a in args),)
                for static, args in shapes[nt]))
            cls = signature_ids.setdefault(sig, len(signature_ids))
            new_classes[nt] = cls
        if len(signature_ids) == num_classes:
            break  # refinement only splits: same count => same partition
        classes = new_classes
        num_classes = len(signature_ids)
    # map each class to one representative nonterminal
    representative: Dict[int, int] = {}
    for nt in sorted(pruned):
        representative.setdefault(classes[nt], nt)
    classes = {nt: representative[cls] for nt, cls in classes.items()}

    merged: Dict[int, FrozenSet[Alt]] = {}
    for nt in pruned:
        cls = classes[nt]
        if cls in merged:
            continue
        merged[cls] = frozenset(
            FuncAlt(a.name, tuple(classes[x] for x in a.args), a.is_int)
            if isinstance(a, FuncAlt) else a
            for a in pruned[nt])
    root = classes[root]

    # 4. BFS renumbering from the root (canonical numbering)
    numbering: Dict[int, int] = {root: 0}
    queue: deque = deque([root])
    while queue:
        nt = queue.popleft()
        for alt in sorted(merged[nt], key=_alt_sort_key):
            if isinstance(alt, FuncAlt):
                for child in alt.args:
                    if child not in numbering:
                        numbering[child] = len(numbering)
                        queue.append(child)
    final: Dict[int, FrozenSet[Alt]] = {}
    for nt, number in numbering.items():
        final[number] = frozenset(
            FuncAlt(a.name, tuple(numbering[x] for x in a.args), a.is_int)
            if isinstance(a, FuncAlt) else a
            for a in merged[nt])
    return intern_grammar(Grammar(final, 0))


# -- inclusion, union, intersection ------------------------------------------

def g_le_reference(g1: Grammar, g2: Grammar) -> bool:
    """Inclusion by a coinductive recursive walk over rule pairs."""
    memo: Dict[Tuple[int, int], bool] = {}

    def le(n1: int, n2: int) -> bool:
        key = (n1, n2)
        cached = memo.get(key)
        if cached is not None:
            return cached
        memo[key] = True  # coinductive hypothesis
        alts2 = g2.rules[n2]
        if ANY in alts2:
            return True
        by_key = {a.fkey: a for a in alts2 if isinstance(a, FuncAlt)}
        has_int = INT in alts2
        ok = True
        for alt in g1.rules[n1]:
            if alt is ANY:
                ok = False  # nothing but ANY covers all terms
            elif alt is INT:
                ok = has_int
            else:
                assert isinstance(alt, FuncAlt)
                if alt.is_int and has_int:
                    continue
                other = by_key.get(alt.fkey)
                if other is None:
                    ok = False
                else:
                    ok = all(le(a, b) for a, b in zip(alt.args, other.args))
            if not ok:
                break
        memo[key] = ok
        return ok

    if g1.is_bottom():
        return True
    if g2.is_bottom():
        return False
    return le(g1.root, g2.root)


def g_union_reference(g1: Grammar, g2: Grammar,
                      max_or_width: Optional[int]) -> Grammar:
    """Pointwise-merged union built through a ``GrammarBuilder``."""
    builder = GrammarBuilder()
    # keys: ('L', nt) from g1, ('R', nt) from g2, ('B', n1, n2) merged
    memo: Dict[tuple, int] = {}

    def visit(key: tuple) -> int:
        if key in memo:
            return memo[key]
        nt = builder.fresh()
        memo[key] = nt
        if key[0] == "L":
            alts: FrozenSet[Alt] = g1.rules[key[1]]
            side = "L"
            for alt in alts:
                builder.add(nt, _map_alt(alt, side))
            return nt
        if key[0] == "R":
            for alt in g2.rules[key[1]]:
                builder.add(nt, _map_alt(alt, "R"))
            return nt
        _, n1, n2 = key
        alts1, alts2 = g1.rules[n1], g2.rules[n2]
        if ANY in alts1 or ANY in alts2:
            builder.add(nt, ANY)
            return nt
        has_int = INT in alts1 or INT in alts2
        if has_int:
            builder.add(nt, INT)
        by1 = {a.fkey: a for a in alts1 if isinstance(a, FuncAlt)}
        by2 = {a.fkey: a for a in alts2 if isinstance(a, FuncAlt)}
        for fkey in sorted(set(by1) | set(by2)):
            if has_int and fkey[0] == "i":
                continue  # literal absorbed by INT
            a1, a2 = by1.get(fkey), by2.get(fkey)
            if a1 is not None and a2 is not None:
                children = tuple(visit(("B", c1, c2))
                                 for c1, c2 in zip(a1.args, a2.args))
                builder.add(nt, FuncAlt(a1.name, children, a1.is_int))
            elif a1 is not None:
                builder.add(nt, _map_alt(a1, "L"))
            else:
                assert a2 is not None
                builder.add(nt, _map_alt(a2, "R"))
        return nt

    def _map_alt(alt: Alt, side: str) -> Alt:
        if isinstance(alt, FuncAlt):
            return FuncAlt(alt.name,
                           tuple(visit((side, a)) for a in alt.args),
                           alt.is_int)
        return alt

    root = visit(("B", g1.root, g2.root))
    return builder.finish(root, max_or_width)


def g_intersect_reference(g1: Grammar, g2: Grammar,
                          max_or_width: Optional[int]) -> Grammar:
    """Product intersection built through a ``GrammarBuilder``."""
    builder = GrammarBuilder()
    memo: Dict[tuple, int] = {}

    def embed(grammar: Grammar, nt: int, side: str) -> int:
        key = (side, nt)
        if key in memo:
            return memo[key]
        new = builder.fresh()
        memo[key] = new
        for alt in grammar.rules[nt]:
            if isinstance(alt, FuncAlt):
                builder.add(new, FuncAlt(
                    alt.name,
                    tuple(embed(grammar, a, side) for a in alt.args),
                    alt.is_int))
            else:
                builder.add(new, alt)
        return new

    def visit(n1: int, n2: int) -> int:
        key = ("B", n1, n2)
        if key in memo:
            return memo[key]
        nt = builder.fresh()
        memo[key] = nt
        alts1, alts2 = g1.rules[n1], g2.rules[n2]
        if ANY in alts1:
            builder.set_alts(nt, [
                FuncAlt(a.name, tuple(embed(g2, x, "R") for x in a.args),
                        a.is_int) if isinstance(a, FuncAlt) else a
                for a in alts2])
            return nt
        if ANY in alts2:
            builder.set_alts(nt, [
                FuncAlt(a.name, tuple(embed(g1, x, "L") for x in a.args),
                        a.is_int) if isinstance(a, FuncAlt) else a
                for a in alts1])
            return nt
        int1, int2 = INT in alts1, INT in alts2
        if int1 and int2:
            builder.add(nt, INT)
        by1 = {a.fkey: a for a in alts1 if isinstance(a, FuncAlt)}
        by2 = {a.fkey: a for a in alts2 if isinstance(a, FuncAlt)}
        for fkey in sorted(set(by1) & set(by2)):
            a1, a2 = by1[fkey], by2[fkey]
            children = tuple(visit(c1, c2)
                             for c1, c2 in zip(a1.args, a2.args))
            builder.add(nt, FuncAlt(a1.name, children, a1.is_int))
        if int2 and not int1:
            for alt in alts1:
                if isinstance(alt, FuncAlt) and alt.is_int:
                    builder.add(nt, alt)
        if int1 and not int2:
            for alt in alts2:
                if isinstance(alt, FuncAlt) and alt.is_int:
                    builder.add(nt, alt)
        return nt

    root = visit(g1.root, g2.root)
    return builder.finish(root, max_or_width)
