"""Property-based round-trip tests for the serialization layer:
``deserialize(serialize(x)) == x`` for random grammars and abstract
substitutions, and content-hash stability under re-encoding."""

import json

from hypothesis import given, settings, strategies as st

from repro.domains.leaf import TypeLeafDomain
from repro.domains.pattern import PAT_BOTTOM
from repro.domains.pybuilder import SubstBuilder
from repro.service.serialize import (canonical_json, content_hash,
                                     decode_grammar, decode_subst,
                                     encode_grammar, encode_subst)
from repro.typegraph.grammar import (g_any, g_atom, g_int, g_int_literal,
                                     g_functor)
from repro.typegraph.ops import g_list_of, g_union

_ATOMS = ("a", "b", "[]", "foo")
_FUNCTORS = (("f", 1), ("g", 2), (".", 2), ("s", 1))


def _grammars(depth):
    if depth == 0:
        return st.one_of(
            st.sampled_from([g_any(), g_int()]),
            st.sampled_from(list(_ATOMS)).map(g_atom),
            st.integers(0, 3).map(g_int_literal),
        )
    sub = _grammars(depth - 1)
    return st.one_of(
        _grammars(0),
        st.builds(lambda name_arity, args:
                  g_functor(name_arity[0], args[:name_arity[1]]),
                  st.sampled_from(list(_FUNCTORS)),
                  st.lists(sub, min_size=2, max_size=2)),
        st.builds(g_union, sub, sub),
        st.builds(g_list_of, sub),
    )


grammars = _grammars(2)

_DOMAIN = TypeLeafDomain()


@st.composite
def substs(draw):
    """Random frozen substitutions: a pool of typed leaves, some shared
    across variables, some wrapped in sure-structure patterns."""
    builder = SubstBuilder(_DOMAIN)
    leaves = [builder.fresh_leaf(draw(grammars))
              for _ in range(draw(st.integers(1, 3)))]

    def node(depth):
        choice = draw(st.integers(0, 2 if depth else 0))
        if choice == 0:
            return draw(st.sampled_from(leaves))
        if choice == 1:
            return builder.make_pattern(
                draw(st.sampled_from(["f", "cons"])), False,
                [node(depth - 1), node(depth - 1)])
        return builder.make_pattern(draw(st.sampled_from(list(_ATOMS))),
                                    False, [])

    roots = [node(2) for _ in range(draw(st.integers(1, 3)))]
    return builder.freeze(roots)


@settings(max_examples=150, deadline=None)
@given(grammars)
def test_grammar_roundtrip_identity(g):
    assert decode_grammar(json.loads(json.dumps(encode_grammar(g)))) == g


@settings(max_examples=150, deadline=None)
@given(grammars)
def test_grammar_hash_stable_under_reencoding(g):
    first = encode_grammar(g)
    second = encode_grammar(decode_grammar(first))
    assert content_hash(first) == content_hash(second)


@settings(max_examples=100, deadline=None)
@given(grammars, grammars)
def test_grammar_hash_respects_equality(g1, g2):
    same_hash = content_hash(encode_grammar(g1)) == \
        content_hash(encode_grammar(g2))
    assert same_hash == (g1 == g2)


@settings(max_examples=150, deadline=None)
@given(substs())
def test_subst_roundtrip_identity(subst):
    data = json.loads(json.dumps(encode_subst(subst, _DOMAIN)))
    restored = decode_subst(data, _DOMAIN)
    if subst is PAT_BOTTOM:
        assert restored is PAT_BOTTOM
    else:
        assert restored == subst


@settings(max_examples=100, deadline=None)
@given(substs())
def test_subst_encoding_is_canonical(subst):
    first = encode_subst(subst, _DOMAIN)
    second = encode_subst(decode_subst(first, _DOMAIN), _DOMAIN)
    assert canonical_json(first) == canonical_json(second)
