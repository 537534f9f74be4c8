"""Property-based tests (hypothesis) for the Pat(R) domain.

Random abstract substitutions are generated by running random kernel
goal sequences through the builder; the properties are the lattice
contracts the engine relies on (join is an upper bound, widening
stabilizes, le is a preorder compatible with join).
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.domains.leaf import TrivialLeafDomain, TypeLeafDomain
from repro.domains.pattern import (PAT_BOTTOM, subst_eq, subst_join,
                                   subst_le, subst_top, subst_widen)
from repro.domains.pybuilder import SubstBuilder
from repro.typegraph import g_any, g_atom, g_int, g_list_of, g_union

TYPE_DOMAIN = TypeLeafDomain()
TRIVIAL_DOMAIN = TrivialLeafDomain()

_LEAF_VALUES = [g_any(), g_atom("a"), g_atom("b"), g_int(),
                g_list_of(g_any()), g_union(g_atom("a"), g_atom("b"))]

# A random "goal": either unify two of the variables, or bind a
# variable to a functor over other variables, or constrain a leaf.
_goals = st.lists(
    st.one_of(
        st.tuples(st.just("unify"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("build"),
                  st.integers(0, 3),
                  st.sampled_from(["f", "g", ".", "s"]),
                  st.lists(st.integers(0, 3), min_size=1, max_size=2)),
        st.tuples(st.just("constrain"), st.integers(0, 3),
                  st.sampled_from(range(len(_LEAF_VALUES)))),
    ),
    max_size=6)


def build_subst(goals, domain):
    """Run a goal script; returns a frozen subst or PAT_BOTTOM."""
    builder = SubstBuilder(domain)
    nodes = [builder.fresh_leaf() for _ in range(4)]
    for goal in goals:
        if goal[0] == "unify":
            if not builder.unify(nodes[goal[1]], nodes[goal[2]]):
                return PAT_BOTTOM
        elif goal[0] == "build":
            _, v, name, args = goal
            arity = 2 if name == "." else len(args)
            children = [nodes[a] for a in (args * 2)[:arity]]
            pattern = builder.make_pattern(name, False, children)
            if not builder.unify(nodes[v], pattern):
                return PAT_BOTTOM
        else:
            _, v, value_index = goal
            if not builder.constrain(nodes[v],
                                     _LEAF_VALUES[value_index]):
                return PAT_BOTTOM
    return builder.freeze(nodes)


substs = _goals.map(lambda gs: build_subst(gs, TYPE_DOMAIN))


@settings(max_examples=120, deadline=None)
@given(substs)
def test_le_reflexive(s):
    assert subst_le(s, s, TYPE_DOMAIN)


@settings(max_examples=120, deadline=None)
@given(substs, substs)
def test_join_upper_bound(s1, s2):
    assume(s1 is not PAT_BOTTOM and s2 is not PAT_BOTTOM)
    j = subst_join(s1, s2, TYPE_DOMAIN)
    assert subst_le(s1, j, TYPE_DOMAIN)
    assert subst_le(s2, j, TYPE_DOMAIN)


@settings(max_examples=120, deadline=None)
@given(substs, substs)
def test_widen_upper_bound(s1, s2):
    assume(s1 is not PAT_BOTTOM and s2 is not PAT_BOTTOM)
    w = subst_widen(s1, s2, TYPE_DOMAIN)
    assert subst_le(s1, w, TYPE_DOMAIN)
    assert subst_le(s2, w, TYPE_DOMAIN)


@settings(max_examples=60, deadline=None)
@given(substs, st.lists(substs, min_size=1, max_size=5))
def test_widening_chain_stabilizes(s0, others):
    assume(s0 is not PAT_BOTTOM)
    current = s0
    for _ in range(25):
        changed = False
        for s in others:
            if s is PAT_BOTTOM:
                continue
            new = subst_widen(current, s, TYPE_DOMAIN)
            if not subst_le(new, current, TYPE_DOMAIN):
                current = new
                changed = True
        if not changed:
            return
    pytest.fail("Pat(Type) widening chain did not stabilize")


@settings(max_examples=120, deadline=None)
@given(substs)
def test_top_is_greatest(s):
    assume(s is not PAT_BOTTOM)
    assert subst_le(s, subst_top(s.nvars, TYPE_DOMAIN), TYPE_DOMAIN)


@settings(max_examples=120, deadline=None)
@given(substs, substs, substs)
def test_le_transitive(s1, s2, s3):
    if subst_le(s1, s2, TYPE_DOMAIN) and subst_le(s2, s3, TYPE_DOMAIN):
        assert subst_le(s1, s3, TYPE_DOMAIN)


@settings(max_examples=120, deadline=None)
@given(_goals)
def test_trivial_domain_join_terminates(goals):
    s1 = build_subst(goals, TRIVIAL_DOMAIN)
    s2 = build_subst(list(reversed(goals)), TRIVIAL_DOMAIN)
    if s1 is PAT_BOTTOM or s2 is PAT_BOTTOM:
        return
    j = subst_join(s1, s2, TRIVIAL_DOMAIN)
    assert subst_le(s1, j, TRIVIAL_DOMAIN)
    assert subst_le(s2, j, TRIVIAL_DOMAIN)


@settings(max_examples=120, deadline=None)
@given(_goals)
def test_type_refines_trivial(goals):
    """The type domain refutes at least everything the trivial domain
    refutes (it is a refinement)."""
    trivial = build_subst(goals, TRIVIAL_DOMAIN)
    typed = build_subst(goals, TYPE_DOMAIN)
    if trivial is PAT_BOTTOM:
        # trivial bottom means a pure structural clash; type sees it too
        assert typed is PAT_BOTTOM


@settings(max_examples=120, deadline=None)
@given(substs)
def test_canonical_form_stable_under_rebuild(s):
    assume(s is not PAT_BOTTOM)
    builder = SubstBuilder(TYPE_DOMAIN)
    nodes = builder.instantiate(s)
    rebuilt = builder.freeze(nodes)
    assert subst_eq(s, rebuilt, TYPE_DOMAIN)
