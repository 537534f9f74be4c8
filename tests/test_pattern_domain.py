"""Unit tests for the Pat(R) pattern domain (§5)."""

import pytest

from repro.domains.leaf import TrivialLeafDomain, TypeLeafDomain
from repro.domains.pattern import (PAT_BOTTOM, subst_eq, subst_join,
                                   subst_le, subst_top, subst_widen,
                                   value_of)
from repro.domains.pybuilder import SubstBuilder
from repro.typegraph import (g_any, g_atom, g_equiv, g_functor, g_int,
                             g_le, g_list_of, g_union)

D = TypeLeafDomain()


def frozen(builder, roots):
    subst = builder.freeze(roots)
    assert subst is not PAT_BOTTOM
    return subst


class TestBuilderUnification:
    def test_leaf_leaf_meet(self):
        b = SubstBuilder(D)
        x = b.fresh_leaf(g_union(g_atom("a"), g_atom("b")))
        y = b.fresh_leaf(g_union(g_atom("b"), g_atom("c")))
        assert b.unify(x, y)
        subst = frozen(b, [x])
        assert g_equiv(subst.nodes[0].value, g_atom("b"))

    def test_leaf_leaf_disjoint_fails(self):
        b = SubstBuilder(D)
        x = b.fresh_leaf(g_atom("a"))
        y = b.fresh_leaf(g_atom("b"))
        assert not b.unify(x, y)

    def test_pattern_pattern_same_functor(self):
        b = SubstBuilder(D)
        x1, x2 = b.fresh_leaf(g_atom("a")), b.fresh_leaf()
        y1, y2 = b.fresh_leaf(), b.fresh_leaf(g_atom("c"))
        p1 = b.make_pattern("f", False, [x1, x2])
        p2 = b.make_pattern("f", False, [y1, y2])
        assert b.unify(p1, p2)
        subst = frozen(b, [x1, x2])
        assert g_equiv(subst.nodes[subst.sv[0]].value, g_atom("a"))
        assert g_equiv(subst.nodes[subst.sv[1]].value, g_atom("c"))

    def test_pattern_pattern_clash(self):
        b = SubstBuilder(D)
        p1 = b.make_pattern("f", False, [b.fresh_leaf()])
        p2 = b.make_pattern("g", False, [b.fresh_leaf()])
        assert not b.unify(p1, p2)

    def test_pattern_leaf_split(self):
        b = SubstBuilder(D)
        leaf = b.fresh_leaf(g_list_of(g_atom("x")))
        head, tail = b.fresh_leaf(), b.fresh_leaf()
        pattern = b.make_pattern(".", False, [head, tail])
        assert b.unify(pattern, leaf)
        subst = frozen(b, [head, tail])
        assert g_equiv(subst.nodes[subst.sv[0]].value, g_atom("x"))
        assert g_equiv(subst.nodes[subst.sv[1]].value,
                       g_list_of(g_atom("x")))

    def test_pattern_leaf_wrong_functor_fails(self):
        b = SubstBuilder(D)
        leaf = b.fresh_leaf(g_atom("[]"))
        pattern = b.make_pattern(".", False, [b.fresh_leaf(),
                                              b.fresh_leaf()])
        assert not b.unify(pattern, leaf)

    def test_same_value_sharing(self):
        b = SubstBuilder(D)
        x, y = b.fresh_leaf(), b.fresh_leaf()
        assert b.unify(x, y)
        subst = frozen(b, [x, y])
        assert subst.sv[0] == subst.sv[1]

    def test_occur_check_gives_bottom(self):
        b = SubstBuilder(D)
        x = b.fresh_leaf()
        pattern = b.make_pattern("f", False, [x])
        assert b.unify(x, pattern)  # merge itself succeeds...
        assert b.freeze([x]) is PAT_BOTTOM  # ...the occur check rejects

    def test_constrain_pushes_through_pattern(self):
        b = SubstBuilder(D)
        inner = b.fresh_leaf()
        pattern = b.make_pattern("f", False, [inner])
        assert b.constrain(pattern, g_functor("f", [g_atom("a")]))
        subst = frozen(b, [inner])
        assert g_equiv(subst.nodes[0].value, g_atom("a"))

    def test_constrain_failure(self):
        b = SubstBuilder(D)
        pattern = b.make_pattern("f", False, [b.fresh_leaf()])
        assert not b.constrain(pattern, g_atom("a"))


class TestFreezeInstantiate:
    def test_canonical_numbering(self):
        b = SubstBuilder(D)
        x, y = b.fresh_leaf(g_atom("a")), b.fresh_leaf(g_atom("b"))
        s1 = frozen(b, [x, y])
        b2 = SubstBuilder(D)
        p, q = b2.fresh_leaf(g_atom("a")), b2.fresh_leaf(g_atom("b"))
        s2 = frozen(b2, [p, q])
        assert s1 == s2

    def test_instantiate_preserves_sharing(self):
        b = SubstBuilder(D)
        x = b.fresh_leaf()
        s = frozen(b, [x, x])
        b2 = SubstBuilder(D)
        nodes = b2.instantiate(s)
        assert b2.find(nodes[0]) is b2.find(nodes[1])

    def test_instantiate_preserves_structure(self):
        b = SubstBuilder(D)
        inner = b.fresh_leaf(g_int())
        pattern = b.make_pattern("f", False, [inner])
        s = frozen(b, [pattern])
        b2 = SubstBuilder(D)
        [node] = b2.instantiate(s)
        node = b2.find(node)
        assert node.name == "f"
        assert g_equiv(b2.find(node.args[0]).value, g_int())


class TestJoin:
    def _subst(self, build):
        b = SubstBuilder(D)
        roots = build(b)
        return frozen(b, roots)

    def test_join_identical(self):
        s = subst_top(2, D)
        assert subst_eq(subst_join(s, s, D), s, D)

    def test_join_with_bottom(self):
        s = subst_top(1, D)
        assert subst_join(s, PAT_BOTTOM, D) is s
        assert subst_join(PAT_BOTTOM, s, D) is s

    def test_join_same_pattern_kept(self):
        def one(value):
            def build(b):
                leaf = b.fresh_leaf(value)
                return [b.make_pattern("f", False, [leaf])]
            return self._subst(build)
        j = subst_join(one(g_atom("a")), one(g_atom("b")), D)
        node = j.nodes[j.sv[0]]
        assert not node.is_leaf and node.name == "f"
        child = j.nodes[node.args[0]]
        assert g_equiv(child.value, g_union(g_atom("a"), g_atom("b")))

    def test_join_different_pattern_collapses(self):
        def one(name):
            def build(b):
                return [b.make_pattern(name, False, [b.fresh_leaf()])]
            return self._subst(build)
        j = subst_join(one("f"), one("g"), D)
        node = j.nodes[j.sv[0]]
        assert node.is_leaf
        assert g_equiv(node.value,
                       g_union(g_functor("f", [g_any()]),
                               g_functor("g", [g_any()])))

    def test_join_keeps_common_sharing(self):
        def shared(b):
            x = b.fresh_leaf()
            return [x, x]
        def unshared(b):
            return [b.fresh_leaf(), b.fresh_leaf()]
        s_shared = self._subst(shared)
        s_unshared = self._subst(unshared)
        both = subst_join(s_shared, s_shared, D)
        assert both.sv[0] == both.sv[1]
        mixed = subst_join(s_shared, s_unshared, D)
        assert mixed.sv[0] != mixed.sv[1]


class TestOrder:
    def test_top_is_greatest(self):
        b = SubstBuilder(D)
        s = frozen(b, [b.make_pattern("f", False, [b.fresh_leaf()])])
        assert subst_le(s, subst_top(1, D), D)
        assert not subst_le(subst_top(1, D), s, D)

    def test_bottom_least(self):
        assert subst_le(PAT_BOTTOM, subst_top(1, D), D)
        assert not subst_le(subst_top(1, D), PAT_BOTTOM, D)

    def test_leaf_value_order(self):
        def leaf(value):
            b = SubstBuilder(D)
            return frozen(b, [b.fresh_leaf(value)])
        assert subst_le(leaf(g_atom("a")), leaf(g_any()), D)
        assert not subst_le(leaf(g_any()), leaf(g_atom("a")), D)

    def test_leaf_vs_pattern_through_domain(self):
        # s1 leaf f(a) <= s2 pattern f(leaf a): decidable via grammars
        b1 = SubstBuilder(D)
        s1 = frozen(b1, [b1.fresh_leaf(g_functor("f", [g_atom("a")]))])
        b2 = SubstBuilder(D)
        s2 = frozen(b2, [b2.make_pattern("f", False,
                                         [b2.fresh_leaf(g_any())])])
        assert subst_le(s1, s2, D)

    def test_sharing_constraint(self):
        b1 = SubstBuilder(D)
        x = b1.fresh_leaf()
        s_shared = frozen(b1, [x, x])
        b2 = SubstBuilder(D)
        s_unshared = frozen(b2, [b2.fresh_leaf(), b2.fresh_leaf()])
        # shared <= unshared but not conversely
        assert subst_le(s_shared, s_unshared, D)
        assert not subst_le(s_unshared, s_shared, D)

    def test_join_is_least_upperish(self):
        b = SubstBuilder(D)
        s1 = frozen(b, [b.fresh_leaf(g_atom("a"))])
        b2 = SubstBuilder(D)
        s2 = frozen(b2, [b2.fresh_leaf(g_atom("b"))])
        j = subst_join(s1, s2, D)
        assert subst_le(s1, j, D) and subst_le(s2, j, D)


class TestWidenSubst:
    def test_widen_upper_bound(self):
        b = SubstBuilder(D)
        s1 = frozen(b, [b.fresh_leaf(g_atom("a"))])
        b2 = SubstBuilder(D)
        s2 = frozen(b2, [b2.fresh_leaf(g_atom("b"))])
        w = subst_widen(s1, s2, D)
        assert subst_le(s1, w, D) and subst_le(s2, w, D)

    def test_widen_structure_is_prefix_of_old(self):
        b = SubstBuilder(D)
        inner = b.make_pattern("g", False, [b.fresh_leaf()])
        s_old = frozen(b, [b.make_pattern("f", False, [inner])])
        b2 = SubstBuilder(D)
        s_new = frozen(b2, [b2.make_pattern("f", False,
                                            [b2.fresh_leaf()])])
        w = subst_widen(s_old, s_new, D)
        node = w.nodes[w.sv[0]]
        assert node.name == "f"
        assert w.nodes[node.args[0]].is_leaf  # inner collapsed


class TestTrivialDomain:
    T = TrivialLeafDomain()

    def test_unify_never_fails_on_leaves(self):
        b = SubstBuilder(self.T)
        assert b.unify(b.fresh_leaf(), b.fresh_leaf())

    def test_pattern_tracking_still_works(self):
        b = SubstBuilder(self.T)
        leaf = b.fresh_leaf()
        pattern = b.make_pattern("f", False, [b.fresh_leaf()])
        assert b.unify(leaf, pattern)
        subst = b.freeze([leaf])
        assert subst.nodes[subst.sv[0]].name == "f"

    def test_functor_clash_detected(self):
        b = SubstBuilder(self.T)
        p1 = b.make_pattern("f", False, [b.fresh_leaf()])
        p2 = b.make_pattern("g", False, [b.fresh_leaf()])
        assert not b.unify(p1, p2)

    def test_value_of_is_top(self):
        b = SubstBuilder(self.T)
        pattern = b.make_pattern("f", False, [b.fresh_leaf()])
        subst = b.freeze([pattern])
        from repro.domains.leaf import TOP
        assert value_of(subst, subst.sv[0], self.T, {}) is TOP
