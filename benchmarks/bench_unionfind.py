"""Union-find micro-benchmark (PR 4 satellite).

``SubstBuilder.find`` moved from two-pass full path compression to
single-pass path halving, and the leaf-leaf case of ``unify`` unions
by size.  This harness measures the effect on the access pattern that
hurts an unbalanced forest most: build long chains by merging
variables pairwise, then hammer ``find`` from the deep ends.

The asserted bound is deliberately loose (the win is a constant
factor on CPython); the printed table is the informative part.
"""

import time

from repro.domains.leaf import TrivialLeafDomain
from repro.domains.pybuilder import SubstBuilder, _UNode

from .conftest import report

CHAIN = 2000
ROUNDS = 60


def _legacy_find(node):
    """The pre-PR4 implementation: walk to the root, then a second
    pass pointing every node at it."""
    root = node
    while root.parent is not None:
        root = root.parent
    while node.parent is not None:
        node.parent, node = root, node.parent
    return root


def _build_chain(n):
    """A worst-case parent chain (as produced by adversarial unify
    orders before union-by-size)."""
    nodes = [_UNode(value="v%d" % i) for i in range(n)]
    for i in range(n - 1):
        nodes[i + 1].parent = nodes[i]
        nodes[i + 1].args = None
        nodes[i + 1].value = None
    return nodes


def _hammer(find, nodes):
    start = time.perf_counter()
    for _ in range(ROUNDS):
        # touch the deep third of the chain, deepest first
        for node in nodes[-CHAIN // 3:][::-1]:
            find(node)
    return time.perf_counter() - start


def test_path_halving_find(benchmark_report=None):
    halving = _hammer(SubstBuilder.find, _build_chain(CHAIN))
    legacy = _hammer(_legacy_find, _build_chain(CHAIN))

    # Union-by-size effect: merge leaves pairwise in the adversarial
    # order (always union the 1-element class *into* the growing one
    # via unify) and measure the resulting depth distribution.
    domain = TrivialLeafDomain()
    builder = SubstBuilder(domain)
    leaves = [builder.fresh_leaf() for _ in range(CHAIN)]
    acc = leaves[0]
    for leaf in leaves[1:]:
        assert builder.unify(acc, leaf)
    max_depth = 0
    for leaf in leaves:
        depth = 0
        node = leaf
        while node.parent is not None:
            node = node.parent
            depth += 1
        max_depth = max(max_depth, depth)

    report("Union-find (chain=%d, rounds=%d):\n"
           "  find with path halving   %.4fs\n"
           "  find with full two-pass  %.4fs  (%.2fx)\n"
           "  max forest depth after %d size-weighted leaf unions: %d"
           % (CHAIN, ROUNDS, halving, legacy,
              legacy / halving if halving else float("inf"),
              CHAIN, max_depth))

    # Halving must not be slower than the legacy two-pass by more than
    # noise, and union-by-size must keep the forest shallow.
    assert halving <= legacy * 1.5
    assert max_depth <= 2
