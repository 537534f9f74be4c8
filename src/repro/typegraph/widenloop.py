"""The widening operator's transformation loop over the type-graph
view (§7), in Python: unfold, collect the widening clashes
(Definition 7.3), apply cycle introduction (TRi) or vertex
replacement (TRr), renormalize, repeat.  :mod:`repro.typegraph.widening`
describes the operator and hands a widening here, with both operands
interned, when the native tier cannot run it: on the python kernel
tier and for the type-database extension.  A native-tier analysis
never loads this module, nor the graph view in
:mod:`repro.typegraph.graph` it works on.

A step budget acts as an engineering safety net; on overflow the loop
falls back to the or-width-1 cap (a finite subdomain), preserving
soundness and termination of the enclosing fixpoint.
"""

from __future__ import annotations

import warnings
import weakref
from collections import deque
from typing import Dict, List, Optional, Tuple

from . import arena
from .arena import SYMBOLS
from .grammar import ANY, INT, FuncAlt, Grammar, normalize
from .graph import TypeGraph, Vertex, to_grammar, treeify
from .ops import g_le, g_union

__all__ = ["widen", "widening_clashes", "RulesIndex"]

_MAX_WIDEN_STEPS = 400

#: Read-only unfoldings of *old* iterates: ``g_widen`` re-treeifies the
#: same interned g_old across steps and across calls, and the old-side
#: graph is only ever read (clash detection), never transformed.
#: Bounded: unfoldings can be much larger than their grammars, and the
#: weak keys only die when the intern table lets them — an unbounded
#: map could pin a long-lived service process's memory.
_TREEIFY_OLD: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_TREEIFY_OLD_MAX = 256


def _treeify_readonly(grammar: Grammar) -> TypeGraph:
    graph = _TREEIFY_OLD.get(grammar)
    if graph is None:
        graph = treeify(grammar)
        if len(_TREEIFY_OLD) >= _TREEIFY_OLD_MAX:
            _TREEIFY_OLD.clear()
        _TREEIFY_OLD[grammar] = graph
    return graph


def _raw_from_vertices(vertices, nts: Dict[int, int]) -> Grammar:
    """Raw (unnormalized) grammar of the or-vertices in ``vertices``,
    numbered by ``nts`` (so the numbering stays valid), built only
    when a replacement rule actually needs grammar surgery."""
    rules: Dict[int, frozenset] = {}
    for vertex in vertices:
        alts = []
        for successor in vertex.successors:
            if successor.kind == "any":
                alts.append(ANY)
            elif successor.kind == "int":
                alts.append(INT)
            else:
                alts.append(FuncAlt(
                    successor.name,
                    tuple(nts[id(child)]
                          for child in successor.successors),
                    successor.is_int))
        rules[nts[id(vertex)]] = frozenset(alts)
    return Grammar(rules, nts[id(vertices[0])])


def widening_clashes(g_old: TypeGraph,
                     g_new: TypeGraph) -> List[Tuple[Vertex, Vertex]]:
    """Widening clashes WTC(go, gn) (Definition 7.3), in BFS discovery
    order of the correspondence set (Definition 7.1)."""
    clashes: List[Tuple[Vertex, Vertex]] = []
    seen = set()
    sorted_successors: Dict[int, list] = {}  # a vertex can pair many ways

    def aligned(vertex: Vertex) -> list:
        cached = sorted_successors.get(id(vertex))
        if cached is None:
            cached = sorted(vertex.successors,
                            key=lambda v: (v.kind, v.name,
                                           len(v.successors)))
            sorted_successors[id(vertex)] = cached
        return cached

    queue: deque = deque([(g_old.root, g_new.root)])
    while queue:
        vo, vn = queue.popleft()
        key = (id(vo), id(vn))
        if key in seen:
            continue
        seen.add(key)
        if vo.kind == "or" and vn.kind == "or":
            same_depth = vo.depth == vn.depth
            same_pf = vo.pf() == vn.pf()
            if same_depth and same_pf:
                # align successors by functor key (sorted identically)
                queue.extend(zip(aligned(vo), aligned(vn)))
            else:
                # topological clash; keep it if it is a widening clash
                pf_o, pf_n = vo.pf(), vn.pf()
                if pf_n and ((pf_o != pf_n and same_depth)
                             or vo.depth < vn.depth):
                    clashes.append((vo, vn))
        elif vo.kind == "functor" and vn.kind == "functor":
            queue.extend(zip(vo.successors, vn.successors))
        # any/int leaf pairs and mixed pairs: nothing to descend into
    return clashes


def _try_cycle_introduction(graph_new: TypeGraph, nts: Dict[int, int],
                            clashes: List[Tuple[Vertex, Vertex]],
                            strict: bool, le_index: "RulesIndex"
                            ) -> Optional[Grammar]:
    """Apply TRi (Definition 7.4) to the first eligible clash; the
    ancestor search is nearest-first.

    In gentle mode the ancestor must have the *same* pf-set as the
    clashing vertex, not merely a superset: cycling a vertex into a
    strictly richer ancestor is what "mixes the definitions of T, T1
    and T2" in the AR1 example (§2) — growth is preferred until the
    structure has stabilized.  Strict mode uses the paper's subset
    condition.
    """
    for vo, vn in clashes:
        if vn.parent is None:
            continue  # the root has no ancestors
        for va in TypeGraph.or_ancestors(vn):
            # Need depth(vo) >= depth(va); Proposition 7.2's proof covers
            # the depth(va) = depth(vo) case, so the bound is not strict.
            if va.depth > vo.depth:
                continue
            if strict:
                if not vn.pf() <= va.pf():
                    continue  # quick filter implied by va >= vn
            elif vn.pf() != va.pf():
                continue
            if not le_index.le(nts[id(vn)], nts[id(va)]):
                continue
            parent = vn.parent
            parent.successors = [va if s is vn else s
                                 for s in parent.successors]
            parent.clear_pf()
            return to_grammar(graph_new)
    return None


def _try_replacement(graph_new: TypeGraph, raw_of,
                     nts: Dict[int, int],
                     clashes: List[Tuple[Vertex, Vertex]],
                     current: Grammar,
                     max_or_width: Optional[int],
                     strict: bool,
                     type_database: Optional[List[Grammar]],
                     le_index: "RulesIndex") -> Optional[Grammar]:
    """Apply TRr (Definition 7.5) to the first eligible clash.

    In gentle mode (``strict=False``) only the precise
    upper-bound-graft variant is attempted; if it does not shrink the
    graph the clash is left unresolved and the graph is allowed to grow
    — "postponing the widening until the structure of the type appears
    clearly" (§2).  In strict mode the Any fallback guarantees a size
    decrease, which Theorem 7.1's termination argument needs.
    """
    current_size = current.size()
    raw = None  # built once a clash actually reaches grammar surgery
    for vo, vn in clashes:
        for va in TypeGraph.or_ancestors(vn):
            if va.depth > vo.depth:
                continue  # need depth(vo) >= depth(va)
            if not (vn.pf() <= va.pf() or vo.depth < vn.depth):
                continue
            if le_index.le(nts[id(vn)], nts[id(va)]):
                continue  # CI territory, not CR
            if raw is None:
                raw = raw_of()  # grammar surgery ahead: build the view
            nt_va, nt_vn = nts[id(va)], nts[id(vn)]
            # Precise attempt: upper bound of va and vn grafted at va.
            # g_union normalizes each raw vertex view on entry, as the
            # native loop does before its union.
            upper = g_union(Grammar(raw.rules, nt_va),
                            Grammar(raw.rules, nt_vn), max_or_width)
            grafted = _graft(raw, nt_va, upper)
            candidate = normalize(grafted, max_or_width)
            if candidate.size() < current_size:
                return candidate
            # Type-database fallback (§10's proposed extension): graft
            # the smallest database type covering both vertices.
            if type_database:
                for db_type in sorted(type_database,
                                      key=lambda g: g.size()):
                    if not g_le(upper, db_type):
                        continue
                    candidate = normalize(_graft(raw, nt_va, db_type),
                                          max_or_width)
                    if candidate.size() < current_size:
                        return candidate
                    break
            if not strict:
                continue
            # Fallback: va becomes Any — always shrinks.
            rules = dict(raw.rules)
            rules[nt_va] = frozenset([ANY])
            candidate = normalize(Grammar(rules, raw.root), max_or_width)
            if candidate.size() < current_size:
                return candidate
    return None


def _graft(base: Grammar, target_nt: int, replacement: Grammar) -> Grammar:
    """A grammar equal to ``base`` except that ``target_nt`` now derives
    what ``replacement`` derives (replaceVertex's edge surgery)."""
    rules = {}
    offset = max(base.rules) + 1

    def shift(alt):
        if isinstance(alt, FuncAlt):
            return FuncAlt(alt.name,
                           tuple(a + offset for a in alt.args), alt.is_int)
        return alt

    for nt, alts in replacement.rules.items():
        rules[nt + offset] = frozenset(shift(a) for a in alts)
    for nt, alts in base.rules.items():
        if nt == target_nt:
            rules[nt] = rules[replacement.root + offset]
        else:
            rules[nt] = alts
    return Grammar(rules, base.root)


def widen(g_old: Grammar, g_new: Grammar, max_or_width: Optional[int],
          strict: bool, type_database: Optional[List[Grammar]]) -> Grammar:
    """``g_old V g_new`` by the transformation loop; ``g_new`` is not
    below ``g_old`` (see :func:`repro.typegraph.widening.g_widen`)."""
    gn = g_union(g_old, g_new, max_or_width)
    if g_old.is_bottom():
        return gn

    try:
        graph_old = _treeify_readonly(g_old)
    except RecursionError:
        # The tree+back-edge view duplicates shared subgraphs, which
        # can explode exponentially on adversarial sharing.  Same
        # safety net as the step budget: collapse to the or-width-1
        # finite subdomain (a sound upper bound), keeping the
        # enclosing fixpoint terminating instead of crashing.
        warnings.warn("type graph too large to unfold for widening; "
                      "collapsing to the or-width-1 subdomain",
                      RuntimeWarning)
        return normalize(gn, 1)
    for _ in range(_MAX_WIDEN_STEPS):
        try:
            graph_new = treeify(gn)
        except RecursionError:
            warnings.warn("type graph too large to unfold for "
                          "widening; collapsing to the or-width-1 "
                          "subdomain", RuntimeWarning)
            return normalize(gn, 1)
        clashes = widening_clashes(graph_old, graph_new)
        if not clashes:
            return gn
        # One inclusion index per step: the vertex numbering is fixed
        # until the graph is transformed, so every ancestor scan below
        # shares it.  The step compiles once into a flat-int pair index
        # (straight from the graph), and the raw grammar view is built
        # lazily, only if a replacement rule reaches grammar surgery.
        le_index, nts, vertices = RulesIndex.from_graph(graph_new.root)

        def raw_of(vertices=vertices, nts=nts):
            return _raw_from_vertices(vertices, nts)

        result = _try_cycle_introduction(graph_new, nts, clashes, strict,
                                         le_index)
        if result is None:
            result = _try_replacement(graph_new, raw_of, nts, clashes,
                                      gn, max_or_width, strict,
                                      type_database, le_index)
        if result is None:
            return gn
        gn = normalize(result, max_or_width)

    warnings.warn("widening step budget exceeded; collapsing to the "
                  "or-width-1 subdomain", RuntimeWarning)
    return normalize(gn, 1)


# -- raw-rules index (widening steps) ----------------------------------------

class RulesIndex:
    """One widening step's raw vertex grammar compiled to flat ints,
    with pair-memoized inclusion queries.

    The widening's transformation rules probe many overlapping
    or-vertex pairs of the *same* uninterned graph; compiling its rules
    once and answering each ``le`` query with the iterative pair
    worklist (plus a shared memo) replaces a fresh recursive traversal
    per query.  A ``True`` answer certifies every visited pair (all
    pairs reachable from a passing root pass), so positive runs
    populate the memo wholesale.
    """

    __slots__ = ("n", "any_mask", "int_mask", "syms", "args", "by_sym",
                 "memo")

    @classmethod
    def from_graph(cls, root) -> tuple:
        """Compile a type-graph (``root`` an or-vertex) directly into a
        pair index, skipping the raw-grammar detour.  Returns
        ``(index, nts, vertices)`` where ``nts`` maps ``id(or_vertex)``
        to its (dense) nonterminal and ``vertices`` lists the
        or-vertices in numbering order — enough for a caller to build
        the raw grammar lazily with the same numbering."""
        arena._INDEX_BUILDS += 1
        sym_table = SYMBOLS
        nts: Dict[int, int] = {id(root): 0}
        vertices = [root]
        any_mask = 0
        int_mask = 0
        syms: List[tuple] = []
        args: List[tuple] = []
        by_sym: List[dict] = []
        position = 0
        while position < len(vertices):
            vertex = vertices[position]
            row = []
            for successor in vertex.successors:
                kind = successor.kind
                if kind == "any":
                    any_mask |= 1 << position
                elif kind == "int":
                    int_mask |= 1 << position
                else:
                    children = []
                    for child in successor.successors:
                        child_nt = nts.get(id(child))
                        if child_nt is None:
                            child_nt = len(vertices)
                            nts[id(child)] = child_nt
                            vertices.append(child)
                        children.append(child_nt)
                    row.append((sym_table.sym(
                        "i" if successor.is_int else "f",
                        successor.name, len(children)),
                        tuple(children)))
            syms.append(tuple(pair[0] for pair in row))
            args.append(tuple(pair[1] for pair in row))
            by_sym.append(dict(row))
            position += 1
        index = cls.__new__(cls)
        index.n = len(vertices)
        index.any_mask = any_mask
        index.int_mask = int_mask
        index.syms = tuple(syms)
        index.args = tuple(args)
        index.by_sym = tuple(by_sym)
        index.memo = {}
        return index, nts, vertices

    def le(self, i0: int, j0: int) -> bool:
        """Denotation inclusion between two nonterminals of the indexed
        rules."""
        n = self.n
        root = i0 * n + j0
        cached = self.memo.get(root)
        if cached is not None:
            return cached
        any_mask, int_mask = self.any_mask, self.int_mask
        is_literal = SYMBOLS.is_literal
        memo = self.memo
        seen = {root}
        stack = [(i0, j0)]
        result = True
        while stack:
            i, j = stack.pop()
            key = i * n + j
            known = memo.get(key)
            if known is True:
                continue  # all pairs reachable from it pass too
            if known is False:
                result = False
                break
            if (any_mask >> j) & 1:
                continue
            if (any_mask >> i) & 1:
                memo[key] = False
                result = False
                break
            has_int = (int_mask >> j) & 1
            if (int_mask >> i) & 1 and not has_int:
                memo[key] = False
                result = False
                break
            row = self.by_sym[j]
            failed = False
            for sym, arg_tuple in zip(self.syms[i], self.args[i]):
                if has_int and is_literal[sym]:
                    continue
                other = row.get(sym)
                if other is None:
                    failed = True
                    break
                for c1, c2 in zip(arg_tuple, other):
                    child = c1 * n + c2
                    if child not in seen:
                        seen.add(child)
                        stack.append((c1, c2))
            if failed:
                memo[key] = False
                result = False
                break
        if result:
            for key in seen:
                memo[key] = True
        else:
            memo[root] = False
        return result

