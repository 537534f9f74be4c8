"""The Python substitution engine of Pat(R): the union-find
:class:`SubstBuilder` that executes abstract unification, and the
merge and inclusion walks over frozen substitutions.

:mod:`repro.domains.pattern` hands work here when the native tier
cannot take it: on the python kernel tier, for a leaf domain other
than :class:`~repro.domains.leaf.TypeLeafDomain` (the ``--baseline``
principal-functor domain), and for non-interned substitutions.  The native tier runs the same walks in C, so a
native-tier analysis of a Type domain never loads this module.  Both
freeze to identical interned :class:`~repro.domains.pattern.AbstractSubst`
instances.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .leaf import LeafDomain
from .pattern import (PAT_BOTTOM, AbstractSubst, PatNode, intern_subst,
                      value_of)

__all__ = ["SubstBuilder", "merge", "subst_le_walk"]


# -- the union-find unification engine ---------------------------------------

class _UNode:
    __slots__ = ("parent", "name", "is_int", "args", "value", "size")

    def __init__(self, value=None, name: Optional[str] = None,
                 is_int: bool = False,
                 args: Optional[List["_UNode"]] = None) -> None:
        self.parent: Optional["_UNode"] = None
        self.name = name
        self.is_int = is_int
        self.args = args
        self.value = value
        self.size = 1  # union-by-size weight (class size at the root)

    @property
    def is_leaf(self) -> bool:
        return self.args is None


class _CyclicPattern(Exception):
    """Raised inside :meth:`SubstBuilder.freeze` when the occur check
    fails (unification built a cyclic pattern)."""


class SubstBuilder:
    """Mutable abstract substitution on which kernel goals execute."""

    def __init__(self, domain: LeafDomain) -> None:
        self.domain = domain

    # -- node management ----------------------------------------------------

    def fresh_leaf(self, value=None) -> _UNode:
        if value is None:
            value = self.domain.top()
        return _UNode(value=value)

    def make_pattern(self, name: str, is_int: bool,
                     children: List[_UNode]) -> _UNode:
        return _UNode(name=name, is_int=is_int, args=list(children))

    @staticmethod
    def find(node: _UNode) -> _UNode:
        # Path halving: every node on the walk is pointed at its
        # grandparent, so the chain shortens in the same single pass
        # that locates the root (no second compression loop).
        parent = node.parent
        while parent is not None:
            grand = parent.parent
            if grand is None:
                return parent
            node.parent = grand
            node = grand
            parent = node.parent
        return node

    @staticmethod
    def _union(keep: _UNode, merge: _UNode) -> None:
        keep.size += merge.size
        merge.parent = keep
        merge.args = None
        merge.value = None

    # -- snapshot / fork -----------------------------------------------------

    def fork(self, roots: Sequence[_UNode]
             ) -> Tuple["SubstBuilder", List[_UNode]]:
        """Persistent snapshot of the union-find state reachable from
        ``roots``: an isomorphic copy (fresh nodes, same structure,
        sharing and leaf values preserved) that shares no mutable state
        with the original.  Execution can continue on either side
        independently — the engine snapshots the builder before every
        call site so a clause whose callee later improves resumes from
        that point instead of from the clause head (GAIA-style prefix
        resumption)."""
        copies: Dict[int, _UNode] = {}
        originals: List[_UNode] = []
        stack = list(roots)
        while stack:
            node = stack.pop()
            if id(node) in copies:
                continue
            copy = _UNode(value=node.value, name=node.name,
                          is_int=node.is_int)
            copy.size = node.size
            copies[id(node)] = copy
            originals.append(node)
            if node.parent is not None:
                stack.append(node.parent)
            if node.args is not None:
                stack.extend(node.args)
        for node in originals:
            copy = copies[id(node)]
            if node.parent is not None:
                copy.parent = copies[id(node.parent)]
            if node.args is not None:
                copy.args = [copies[id(arg)] for arg in node.args]
        return (SubstBuilder(self.domain),
                [copies[id(root)] for root in roots])

    # -- abstract unification ------------------------------------------------

    def unify(self, a: _UNode, b: _UNode) -> bool:
        """Abstract ``a = b``; False signals sure failure (bottom)."""
        domain = self.domain
        work = [(a, b)]
        while work:
            x, y = work.pop()
            x, y = self.find(x), self.find(y)
            if x is y:
                continue
            if not x.is_leaf and not y.is_leaf:
                if (x.name, x.is_int, len(x.args)) != \
                        (y.name, y.is_int, len(y.args)):
                    return False
                y_args = y.args
                self._union(x, y)
                work.extend(zip(x.args, y_args))
            elif not x.is_leaf:  # y is a leaf
                pieces = domain.split(y.value, x.name, len(x.args), x.is_int)
                if pieces is None:
                    return False
                self._union(x, y)
                for child, piece in zip(x.args, pieces):
                    if not self.constrain(child, piece):
                        return False
            elif not y.is_leaf:  # x is a leaf
                pieces = domain.split(x.value, y.name, len(y.args), y.is_int)
                if pieces is None:
                    return False
                self._union(y, x)
                for child, piece in zip(y.args, pieces):
                    if not self.constrain(child, piece):
                        return False
            else:
                value = domain.meet(x.value, y.value)
                if value is None:
                    return False
                # Leaf-leaf is the one direction-free union: keep the
                # larger class as the root (union by size), so the
                # forest stays shallow under adversarial merge orders.
                if y.size > x.size:
                    x, y = y, x
                self._union(x, y)
                x.value = value
        return True

    def constrain(self, node: _UNode, value) -> bool:
        """Meet ``node`` with an R-value, pushing through patterns."""
        domain = self.domain
        work = [(node, value)]
        seen = set()
        while work:
            n, v = work.pop()
            n = self.find(n)
            if domain.is_top(v):
                continue
            key = (id(n), v)
            if key in seen:
                continue
            seen.add(key)
            if n.is_leaf:
                met = domain.meet(n.value, v)
                if met is None:
                    return False
                n.value = met
            else:
                pieces = domain.split(v, n.name, len(n.args), n.is_int)
                if pieces is None:
                    return False
                work.extend(zip(n.args, pieces))
        return True

    # -- freeze / thaw / instantiate ------------------------------------------

    def freeze(self, roots: Sequence[_UNode]):
        """Canonical frozen form restricted to what ``roots`` reach;
        PAT_BOTTOM if the occur check fails.

        The occur check runs *inside* the freezing DFS (a pattern node
        re-entered while its arguments are still being built is a
        cycle) instead of as a separate :meth:`acyclic` traversal."""
        index: Dict[int, int] = {}
        out: List[Optional[PatNode]] = []
        building: set = set()
        find = self.find

        def visit(node: _UNode) -> int:
            node = find(node)
            key = id(node)
            slot = index.get(key)
            if slot is not None:
                if key in building:
                    raise _CyclicPattern
                return slot
            slot = len(out)
            index[key] = slot
            out.append(None)
            if node.is_leaf:
                out[slot] = PatNode(value=node.value)
            else:
                building.add(key)
                args = tuple(visit(child) for child in node.args)
                building.discard(key)
                out[slot] = PatNode(node.name, node.is_int, args)
            return slot

        try:
            sv = tuple(visit(root) for root in roots)
        except _CyclicPattern:
            # cyclic patterns denote no finite tree: sure failure
            return PAT_BOTTOM
        return intern_subst(AbstractSubst(len(sv), sv, tuple(out)))

    def instantiate(self, subst: AbstractSubst) -> List[_UNode]:
        """Copy ``subst`` into this builder (fresh nodes, sharing
        preserved); returns the node of each position."""
        cache: Dict[int, _UNode] = {}

        def visit(i: int) -> _UNode:
            if i in cache:
                return cache[i]
            node = subst.nodes[i]
            if node.is_leaf:
                unode = self.fresh_leaf(node.value)
            else:
                unode = _UNode(name=node.name, is_int=node.is_int, args=[])
                cache[i] = unode
                unode.args = [visit(a) for a in node.args]
                return unode
            cache[i] = unode
            return unode

        return [visit(self.sv_index(subst, k)) for k in range(subst.nvars)]

    @staticmethod
    def sv_index(subst: AbstractSubst, k: int) -> int:
        return subst.sv[k]


# -- walks over frozen substitutions ------------------------------------------

def merge(s1: AbstractSubst, s2: AbstractSubst, domain: LeafDomain,
          combine: Callable) -> AbstractSubst:
    """Common-structure walk with leaf combiner (join or widen)."""
    assert s1.nvars == s2.nvars
    memo: Dict[Tuple[int, int], int] = {}
    out: List[Optional[PatNode]] = []

    def walk(i1: int, i2: int) -> int:
        key = (i1, i2)
        if key in memo:
            return memo[key]
        slot = len(out)
        memo[key] = slot
        out.append(None)
        n1, n2 = s1.nodes[i1], s2.nodes[i2]
        if not n1.is_leaf and not n2.is_leaf and n1.fkey == n2.fkey:
            args = tuple(walk(a1, a2) for a1, a2 in zip(n1.args, n2.args))
            out[slot] = PatNode(n1.name, n1.is_int, args)
        else:
            value = combine(value_of(s1, i1, domain),
                            value_of(s2, i2, domain))
            out[slot] = PatNode(value=value)
        return slot

    sv = tuple(walk(s1.sv[k], s2.sv[k]) for k in range(s1.nvars))
    return intern_subst(AbstractSubst(s1.nvars, sv, tuple(out)))


def subst_le_walk(s1: AbstractSubst, s2: AbstractSubst,
                  domain: LeafDomain) -> bool:
    """The inclusion walk behind :func:`repro.domains.pattern.subst_le`
    (same arity, neither operand bottom)."""
    refcounts2 = s2.refcounts()
    map21: Dict[int, int] = {}

    def subtree_shared(i2: int) -> bool:
        seen = set()
        stack = [i2]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            if i != i2 and refcounts2[i] > 1:
                return True
            node = s2.nodes[i]
            if node.args is not None:
                stack.extend(node.args)
        return False

    def le(i1: int, i2: int) -> bool:
        if i2 in map21:
            return map21[i2] == i1  # s2's sharing must hold in s1
        map21[i2] = i1
        n1, n2 = s1.nodes[i1], s2.nodes[i2]
        if n2.is_leaf:
            return domain.le(value_of(s1, i1, domain), n2.value)
        if not n1.is_leaf and n1.fkey == n2.fkey:
            return all(le(a1, a2) for a1, a2 in zip(n1.args, n2.args))
        if n1.is_leaf:
            # A leaf can only be below a pattern if the leaf domain can
            # certify the structure (Type can, via grammars; the
            # principal-functor baseline cannot).
            if subtree_shared(i2):
                return False
            n2_children = [value_of(s2, a, domain) for a in n2.args]
            return domain.le_tree(value_of(s1, i1, domain),
                                  n2.name, n2.is_int, n2_children)
        return False

    return all(le(s1.sv[k], s2.sv[k]) for k in range(s1.nvars))
