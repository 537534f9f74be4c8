"""Type graphs: the tree + back-edge view of a type grammar.

This is the representation of §6.1 with the cosmetic restrictions of
§6.4 holding *by construction*:

* **Flip-Flop** — or-vertices alternate with functor/any/int vertices;
  the root is an or-vertex.
* **Or-Cycle** — every cycle's initial vertex is an or-vertex (back
  edges always target or-vertices on the current path).
* **No-Sharing** — removing the closing edge of every canonical cycle
  leaves a tree: :func:`treeify` duplicates shared subgraphs and only
  re-uses a vertex when it is an *ancestor* on the path being built.
* **Isolated-Any** — guaranteed by grammar normalization (Any
  absorption).

Because of No-Sharing, each vertex has a unique tree parent and its
tree depth equals the paper's ``depth`` (length of the shortest path
from the root).  The widening (§7) manipulates this view and converts
back with :func:`to_grammar`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from . import arena
from .grammar import (ANY, INT, INT_FKEY, FuncAlt, Grammar, GrammarBuilder,
                      _alt_sort_key)

__all__ = ["Vertex", "TypeGraph", "treeify", "to_grammar",
           "vertex_rules"]

_TREEIFY_VERTEX_LIMIT = 250000


class Vertex:
    """One type-graph vertex.  ``kind`` is ``or``, ``functor``, ``any``
    or ``int`` (the latter two are the Any leaf of §6.1 and the Integer
    extension)."""

    __slots__ = ("kind", "name", "is_int", "successors", "parent",
                 "depth", "_pf")

    def __init__(self, kind: str, name: str = "",
                 is_int: bool = False,
                 parent: Optional["Vertex"] = None) -> None:
        self.kind = kind
        self.name = name
        self.is_int = is_int
        self.successors: List["Vertex"] = []
        self.parent = parent
        self.depth = -1
        #: lazily cached pf-set; invalidated by :meth:`clear_pf` when a
        #: transformation edits ``successors`` (the widening re-unfolds
        #: the graph after every transformation, so in practice caches
        #: live for exactly one clash-detection/ancestor-scan phase).
        self._pf = None

    @property
    def fkey(self) -> Tuple[str, str, int]:
        """Functor identity for pf-set computation."""
        if self.kind == "int":
            return INT_FKEY
        assert self.kind == "functor"
        return ("i" if self.is_int else "f", self.name,
                len(self.successors))

    def pf(self) -> FrozenSet[Tuple[str, str, int]]:
        """Principal-functor set (§6.3): functors of the successors for
        or-vertices; empty for any-vertices.  Cached per vertex (the
        widening's clash detection and ancestor scans re-query the same
        vertices many times per step)."""
        pf = self._pf
        if pf is None:
            if self.kind == "or":
                pf = frozenset(s.fkey for s in self.successors
                               if s.kind in ("functor", "int"))
            elif self.kind in ("functor", "int"):
                pf = frozenset([self.fkey])
            else:
                pf = frozenset()
            self._pf = pf
        return pf

    def clear_pf(self) -> None:
        self._pf = None

    def __repr__(self) -> str:
        if self.kind == "functor":
            return "<functor %s/%d @%d>" % (self.name,
                                            len(self.successors), self.depth)
        return "<%s @%d>" % (self.kind, self.depth)


class TypeGraph:
    """A rooted type graph.  Build with :func:`treeify`."""

    def __init__(self, root: Vertex, refresh: bool = True) -> None:
        self.root = root
        if refresh:
            self.refresh()

    def refresh(self) -> None:
        """Recompute depths (tree depth = shortest-path depth, thanks to
        No-Sharing) after a transformation."""
        seen = set()
        queue: deque = deque([(self.root, 0)])
        while queue:
            vertex, depth = queue.popleft()
            if id(vertex) in seen:
                continue
            seen.add(id(vertex))
            vertex.depth = depth
            for successor in vertex.successors:
                if id(successor) not in seen:
                    queue.append((successor, depth + 1))

    def vertices(self) -> Iterator[Vertex]:
        seen = set()
        queue: deque = deque([self.root])
        while queue:
            vertex = queue.popleft()
            if id(vertex) in seen:
                continue
            seen.add(id(vertex))
            yield vertex
            queue.extend(vertex.successors)

    def size(self) -> int:
        """Vertices + edges (§6.3)."""
        vertex_count = 0
        edge_count = 0
        for vertex in self.vertices():
            vertex_count += 1
            edge_count += len(vertex.successors)
        return vertex_count + edge_count

    @staticmethod
    def or_ancestors(vertex: Vertex) -> List[Vertex]:
        """Or-vertices strictly above ``vertex`` on its tree path,
        nearest first."""
        result = []
        current = vertex.parent
        while current is not None:
            if current.kind == "or":
                result.append(current)
            current = current.parent
        return result


def treeify(grammar: Grammar) -> TypeGraph:
    """Unfold a grammar into a type graph satisfying the cosmetic
    restrictions.  Shared nonterminals are duplicated; a back edge is
    created only when a nonterminal recurs on the current path.

    Iterative DFS with an explicit task stack: ``path`` holds exactly
    the or-nonterminals between the root and the task being executed
    (their "exit" markers are still on the stack), so back-edge
    resolution matches the recursive formulation — without Python's
    recursion limit capping the unfold depth.
    """
    use_arena = grammar.interned
    if use_arena:
        # Arena rows are pre-sorted in canonical alternative order, so
        # the unfold skips both the per-nonterminal sort and the
        # FuncAlt object walk.
        ar = arena.arena_of(grammar)
        fkeys = arena.SYMBOLS.fkeys
        root_nt = grammar.root
    else:
        root_nt = grammar.root
    count = 0
    path: Dict[int, Vertex] = {}
    root_holder: List[Vertex] = []
    # task: ("or", nt, parent_vertex, destination_list) | ("exit", nt)
    stack: List[tuple] = [("or", root_nt, None, root_holder)]
    while stack:
        task = stack.pop()
        if task[0] == "exit":
            del path[task[1]]
            continue
        _, nt, parent, dest = task
        existing = path.get(nt)
        if existing is not None:
            dest.append(existing)  # back edge to an ancestor or-vertex
            continue
        count += 1
        if count > _TREEIFY_VERTEX_LIMIT:
            raise RecursionError("type graph too large to unfold")
        vertex = Vertex("or", parent=parent)
        # Tree depth is shortest-path depth under No-Sharing (back
        # edges only ever point *up*), so depths can be assigned at
        # construction instead of by a second BFS pass.
        vertex.depth = 0 if parent is None else parent.depth + 1
        path[nt] = vertex
        dest.append(vertex)
        stack.append(("exit", nt))
        # ANY/INT sort before functors, so appending the leaves now and
        # the functor vertices in alternative order keeps the canonical
        # successor ordering; only the argument subtrees are deferred.
        pending: List[Vertex] = []
        pending_args: List[Tuple[int, ...]] = []
        if use_arena:
            if (ar.any_mask >> nt) & 1:
                leaf = Vertex("any", parent=vertex)
                leaf.depth = vertex.depth + 1
                vertex.successors.append(leaf)
            if (ar.int_mask >> nt) & 1:
                leaf = Vertex("int", parent=vertex)
                leaf.depth = vertex.depth + 1
                vertex.successors.append(leaf)
            for sym, args in zip(ar.syms[nt], ar.args[nt]):
                kind, name, _ = fkeys[sym]
                child = Vertex("functor", name, kind == "i",
                               parent=vertex)
                child.depth = vertex.depth + 1
                vertex.successors.append(child)
                pending.append(child)
                pending_args.append(args)
        else:
            for alt in sorted(grammar.rules[nt], key=_alt_sort_key):
                if alt is ANY:
                    leaf = Vertex("any", parent=vertex)
                    leaf.depth = vertex.depth + 1
                    vertex.successors.append(leaf)
                elif alt is INT:
                    leaf = Vertex("int", parent=vertex)
                    leaf.depth = vertex.depth + 1
                    vertex.successors.append(leaf)
                else:
                    assert isinstance(alt, FuncAlt)
                    child = Vertex("functor", alt.name, alt.is_int,
                                   parent=vertex)
                    child.depth = vertex.depth + 1
                    vertex.successors.append(child)
                    pending.append(child)
                    pending_args.append(alt.args)
        for child, args in zip(reversed(pending), reversed(pending_args)):
            for arg in reversed(args):
                stack.append(("or", arg, child, child.successors))
    return TypeGraph(root_holder[0], refresh=False)


def vertex_rules(root: Vertex, builder: GrammarBuilder,
                 nts: Dict[int, int]) -> int:
    """Record the rules of the or-vertices reachable from ``root``
    into ``builder`` (iterative BFS; ``nts`` maps ``id(or_vertex)`` ->
    nonterminal).  Returns the root's nonterminal.  The numbering is
    discovery order — callers either normalize the result (which
    renumbers canonically) or only use nonterminals through ``nts``.
    """
    queue: List[Vertex] = [root]
    nts[id(root)] = builder.fresh()
    position = 0
    while position < len(queue):
        vertex = queue[position]
        position += 1
        nt = nts[id(vertex)]
        for successor in vertex.successors:
            if successor.kind == "any":
                builder.add(nt, ANY)
            elif successor.kind == "int":
                builder.add(nt, INT)
            else:
                assert successor.kind == "functor"
                children = []
                for child in successor.successors:
                    child_nt = nts.get(id(child))
                    if child_nt is None:
                        child_nt = builder.fresh()
                        nts[id(child)] = child_nt
                        queue.append(child)
                    children.append(child_nt)
                builder.add(nt, FuncAlt(successor.name, tuple(children),
                                        successor.is_int))
    return nts[id(root)]


def to_grammar(graph: TypeGraph,
               max_or_width: Optional[int] = None) -> Grammar:
    """Convert back to a (normalized) grammar.  Vertices no longer
    reachable from the root are dropped — this is the paper's
    ``removeUnconnected``.  Or-vertices get dense ids on discovery and
    the rules feed :func:`repro.typegraph.arena._normalize_dense`
    directly, with no ``GrammarBuilder``/``FuncAlt`` intermediates."""
    root = graph.root
    sym = arena.SYMBOLS.sym
    ids: Dict[int, int] = {id(root): 0}
    queue = [root]
    any_f: List[int] = [0]
    int_f: List[int] = [0]
    funcs: List[list] = [()]
    position = 0
    while position < len(queue):
        vertex = queue[position]
        slot = ids[id(vertex)]
        row: List[tuple] = []
        seen_alts = None
        for successor in vertex.successors:
            kind = successor.kind
            if kind == "any":
                any_f[slot] = 1
            elif kind == "int":
                int_f[slot] = 1
            else:
                children = []
                for child in successor.successors:
                    child_id = ids.get(id(child))
                    if child_id is None:
                        child_id = len(ids)
                        ids[id(child)] = child_id
                        any_f.append(0)
                        int_f.append(0)
                        funcs.append(())
                        queue.append(child)
                    children.append(child_id)
                entry = (sym("i" if successor.is_int else "f",
                             successor.name, len(children)),
                         tuple(children))
                if len(row) >= 1:  # dedup like frozenset(alts) did
                    if seen_alts is None:
                        seen_alts = set(row)
                    if entry in seen_alts:
                        continue
                    seen_alts.add(entry)
                row.append(entry)
        funcs[slot] = row
        position += 1
    return arena._normalize_dense(any_f, int_f, funcs, 0, max_or_width)
