"""The Bruynooghe/Janssens-style finite subdomain (§7's alternative).

"To overcome this difficulty, Bruynooghe and Janssens use a finite
subdomain by restricting the number of occurrences of a functional
symbol on the paths of the graphs."  :func:`restrict_depth` enforces
that restriction by *folding*: when a functor key occurs more than
``k`` times on a tree path, the deeper occurrence's or-vertex is merged
(unioned) into the earlier one, introducing a cycle.  This is also the
normalization flavour of Gallagher & de Waal that §10 discusses —
"merging types with the same principal functors ... makes it
impossible to handle nested structures with the same functors", which
is precisely the accuracy gap the ablation harness measures against
the paper's widening.

The result is a finite domain for a fixed program signature:
``depth_bound_join`` (union followed by restriction) can therefore
replace the widening entirely, at the cost §10 describes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .grammar import FuncAlt, Grammar, GrammarBuilder, normalize
from .graph import Vertex, treeify, vertex_rules
from .ops import g_union

__all__ = ["restrict_depth", "depth_bound_join", "path_functor_depth"]

_FKey = Tuple[str, str, int]
_MAX_FOLD_ROUNDS = 60


def path_functor_depth(grammar: Grammar) -> int:
    """The largest number of occurrences of one functor key on a tree
    path of the graph view (cycles count once — their path re-enters an
    existing vertex)."""
    graph = treeify(grammar)
    best = [0]

    def walk(vertex: Vertex, counts: Dict[_FKey, int],
             on_path: Set[int]) -> None:
        if id(vertex) in on_path:
            return  # back edge: the path ends here
        if vertex.kind in ("functor", "int"):
            key = vertex.fkey
            counts = dict(counts)
            counts[key] = counts.get(key, 0) + 1
            best[0] = max(best[0], counts[key])
        on_path = on_path | {id(vertex)}
        for successor in vertex.successors:
            walk(successor, counts, on_path)

    walk(graph.root, {}, set())
    return best[0]


def _fold_once(grammar: Grammar, k: int) -> Optional[Grammar]:
    """Find one path with a functor repeated more than ``k`` times and
    merge the deepest occurrence into the earliest; None if clean."""
    graph = treeify(grammar)
    nts: Dict[int, int] = {}
    builder = GrammarBuilder()
    raw = builder.raw(vertex_rules(graph.root, builder, nts))

    # Depth-first search for a violation; stacks[fkey] holds the
    # or-vertices that introduced each functor on the current path.
    violation: List[Tuple[Vertex, Vertex]] = []

    def search(vertex: Vertex, stacks: Dict[_FKey, List[Vertex]],
               on_path: Set[int]) -> bool:
        if id(vertex) in on_path or violation:
            return bool(violation)
        on_path = on_path | {id(vertex)}
        if vertex.kind == "or":
            for successor in vertex.successors:
                if successor.kind not in ("functor", "int"):
                    continue
                key = successor.fkey
                stack = stacks.get(key, [])
                if len(stack) >= k:
                    violation.append((stack[0], vertex))
                    return True
                stacks[key] = stack + [vertex]
                for child in successor.successors:
                    if search(child, stacks, on_path):
                        return True
                stacks[key] = stack
        return False

    search(graph.root, {}, set())
    if not violation:
        return None
    ancestor, deep = violation[0]
    nt_a, nt_d = nts[id(ancestor)], nts[id(deep)]
    if nt_a == nt_d:
        return None  # already the same vertex (cycle): clean
    return _merge_nonterminals(raw, nt_a, nt_d)


def _merge_nonterminals(grammar: Grammar, a: int, b: int) -> Grammar:
    """Quotient grammar where nonterminals ``a`` and ``b`` are merged
    (references preserved, so cycles form) and the principal functor
    restriction is restored by cascading child merges."""
    parent: Dict[int, int] = {}

    def find(nt: int) -> int:
        root = nt
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(nt, nt) != nt:
            parent[nt], nt = root, parent[nt]
        return root

    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        x, y = find(x), find(y)
        if x == y:
            continue
        parent[y] = x
        # same-functor alternatives of the merged class must agree on
        # their children: schedule those merges too (determinization)
        by_key: Dict[Tuple[str, str, int], FuncAlt] = {}
        for source in (x, y):
            for alt in grammar.rules[source]:
                if not isinstance(alt, FuncAlt):
                    continue
                other = by_key.get(alt.fkey)
                if other is None:
                    by_key[alt.fkey] = alt
                else:
                    pending.extend(zip(other.args, alt.args))

    # Rebuild with classes collapsed; one alternative per functor key.
    builder = GrammarBuilder()
    mapping: Dict[int, int] = {}
    for nt in grammar.rules:
        rep = find(nt)
        if rep not in mapping:
            mapping[rep] = builder.fresh()
    members: Dict[int, List[int]] = {}
    for nt in grammar.rules:
        members.setdefault(find(nt), []).append(nt)
    for rep, group in members.items():
        target = mapping[rep]
        seen: Dict[Tuple[str, str, int], bool] = {}
        for nt in group:
            for alt in grammar.rules[nt]:
                if isinstance(alt, FuncAlt):
                    if alt.fkey in seen:
                        continue  # children classes already merged
                    seen[alt.fkey] = True
                    builder.add(target, FuncAlt(
                        alt.name,
                        tuple(mapping[find(c)] for c in alt.args),
                        alt.is_int))
                else:
                    builder.add(target, alt)
    return builder.finish(mapping[find(grammar.root)])


def restrict_depth(grammar: Grammar, k: int = 1) -> Grammar:
    """Over-approximate ``grammar`` within the subdomain where no
    functor key occurs more than ``k`` times on a tree path."""
    if k < 1:
        raise ValueError("depth bound must be >= 1")
    current = grammar
    for _ in range(_MAX_FOLD_ROUNDS):
        folded = _fold_once(current, k)
        if folded is None:
            return current
        current = folded
    # Safety net: collapse to or-width-1 (finite and very coarse).
    return normalize(current, 1)


def depth_bound_join(g1: Grammar, g2: Grammar, k: int = 1) -> Grammar:
    """Upper bound in the finite subdomain: union then restriction.
    Substituting this for the widening gives the restriction-based
    analysis the ablation compares against §7's widening."""
    return restrict_depth(g_union(g1, g2), k)
