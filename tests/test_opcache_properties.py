"""Cache-correctness properties: every memoized type-graph operation
returns exactly what a fresh computation returns (warm tables, then
:func:`opcache.clear` and a recompute, then the memo hit), and a whole
fixpoint run produces the identical polyvariant table cold (every
table emptied first) and warm.

The comparison is intentionally *bit-level*: results are canonically
serialized (:mod:`repro.service.serialize`) and the JSON texts
compared, so even a "semantically equal but structurally different"
divergence would fail.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import analyze
from repro.benchprogs import benchmark
from repro.service.serialize import canonical_json, encode_result
from repro.typegraph import (FuncAlt, Grammar, g_any, g_atom, g_functor,
                             g_int, g_int_literal, g_intersect, g_le,
                             g_list_of, g_union, g_widen, normalize)
from repro.typegraph import opcache

# -- strategies (compact version of test_typegraph_properties') --------------

_ATOMS = ("a", "b", "[]", "foo")
_FUNCTORS = (("f", 1), ("g", 2), (".", 2))


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
widths = st.sampled_from([None, 1, 2, 5])


def _uncached(op, *args):
    """``op(*args)`` computed fresh: :func:`opcache.clear` first empties
    every memo table, the native tier's C tables included, so no value
    comes from a cache."""
    opcache.clear()
    return op(*args)


# -- per-operation equivalence ------------------------------------------------

@given(grammars, grammars)
@settings(max_examples=120, deadline=None)
def test_g_le_cached_equals_uncached(g1, g2):
    warm = g_le(g1, g2)
    assert warm == _uncached(g_le, g1, g2) == g_le(g1, g2)


@given(grammars, grammars, widths)
@settings(max_examples=120, deadline=None)
def test_g_union_cached_equals_uncached(g1, g2, width):
    cached = g_union(g1, g2, width)
    uncached = _uncached(g_union, g1, g2, width)
    # interning makes "equal" mean "identical object"
    assert cached is uncached
    assert g_union(g1, g2, width) is uncached  # the memo hit


@given(grammars, grammars, widths)
@settings(max_examples=120, deadline=None)
def test_g_intersect_cached_equals_uncached(g1, g2, width):
    cached = g_intersect(g1, g2, width)
    assert cached is _uncached(g_intersect, g1, g2, width)
    assert g_intersect(g1, g2, width) is cached


@given(grammars, grammars, widths)
@settings(max_examples=60, deadline=None)
def test_g_widen_cached_equals_uncached(g1, g2, width):
    cached = g_widen(g1, g2, width)
    assert cached is _uncached(g_widen, g1, g2, width)
    assert g_widen(g1, g2, width) is cached


@given(grammars, grammars)
@settings(max_examples=60, deadline=None)
def test_g_widen_gentle_cached_equals_uncached(g1, g2):
    cached = g_widen(g1, g2, strict=False)
    assert cached is _uncached(
        lambda a, b: g_widen(a, b, strict=False), g1, g2)
    assert g_widen(g1, g2, strict=False) is cached


# -- raw operands take the same path ---------------------------------------

def _raw_copy(g):
    """A non-interned grammar denoting what ``g`` does: its rules
    renumbered, plus an empty nonterminal that a root alternative
    mentions and a nonterminal nothing reaches."""
    shift = 3

    def moved(alt):
        if isinstance(alt, FuncAlt):
            return FuncAlt(alt.name, tuple(x + shift for x in alt.args),
                           alt.is_int)
        return alt

    rules = {nt + shift: frozenset(map(moved, alts))
             for nt, alts in g.rules.items()}
    empty = max(rules) + 1
    rules[empty] = frozenset()
    rules[empty + 1] = frozenset([FuncAlt("unreached")])
    root = g.root + shift
    rules[root] = rules[root] | {FuncAlt("dead", (empty,))}
    return Grammar(rules, root)


@given(grammars, grammars, widths, st.booleans())
@settings(max_examples=80, deadline=None)
def test_raw_operands_give_the_normalized_result(g1, g2, width, strict):
    """Every operation normalizes a raw operand on entry, so it answers
    exactly as it does for the operand's normal form."""
    r1, r2 = _raw_copy(g1), _raw_copy(g2)
    assert not (r1.interned or r2.interned)
    assert normalize(r1) is g1 and normalize(r2) is g2
    assert g_le(r1, r2) == g_le(g1, g2)
    assert g_le(r1, g2) == g_le(g1, r2) == g_le(g1, g2)
    assert g_union(r1, r2, width) is g_union(g1, g2, width)
    assert g_union(g1, r2, width) is g_union(g1, g2, width)
    assert g_intersect(r1, r2, width) is g_intersect(g1, g2, width)
    assert g_intersect(r1, g2, width) is g_intersect(g1, g2, width)
    assert g_widen(r1, r2, width, strict) is g_widen(g1, g2, width, strict)
    assert g_widen(g1, r2, width, strict) is g_widen(g1, g2, width, strict)


# -- whole-analysis equivalence ----------------------------------------------

def _table_json(analysis):
    obj = encode_result(analysis.result)
    # timing and cache-traffic stats legitimately differ run to run
    obj.pop("stats")
    return canonical_json(obj)


@pytest.mark.parametrize("name", ["QU", "PE", "PG", "PL", "DS"])
def test_analyze_identical_with_and_without_opcache(name):
    """A cold run, with every memo table emptied first, and a warm run
    that the tables serve give the identical table.  The frozen
    ``BENCH_pr2.json`` baseline, recorded with the caches switched off,
    is checked against the oracle by ``scripts/ci_check.py history``."""
    bp = benchmark(name)
    opcache.clear()
    cold = analyze(bp.source, bp.query, input_types=bp.input_types)
    warm = analyze(bp.source, bp.query, input_types=bp.input_types)
    assert warm.stats.opcache_hits > 0
    assert warm.stats.opcache_misses < cold.stats.opcache_misses
    assert _table_json(cold) == _table_json(warm)
    assert (cold.stats.procedure_iterations
            == warm.stats.procedure_iterations)
    assert cold.stats.clause_iterations == warm.stats.clause_iterations
