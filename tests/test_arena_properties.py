"""Property suite for the arena kernel (PR 4).

Three contracts:

* **Bit-identity** — every arena kernel returns exactly what the
  Grammar-level reference (:mod:`repro.typegraph.reference`, which
  shares no code with the kernels) returns: the *same interned object*
  for grammar-valued operations (union, intersection, functor,
  subgrammar, normalize), the same boolean for inclusion.  Checked with
  hypothesis over random grammars, on every tier, with the operation
  caches emptied first.  The widening has no reference of its own;
  ``tests/test_kernel_tiers.py`` checks the C loop against the Python
  loop.
* **Round-trips** — compile → decompile reproduces the grammar's rules
  verbatim, and the arena masks/rows agree with the rules they were
  compiled from.
* **Pickling** — symbol ids are per-process, so grammars that cross a
  pickle boundary (``run_batch`` workers) re-intern their symbols on
  arrival and arena results stay identical.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.typegraph import (ANY, INT, FuncAlt, Grammar, GrammarBuilder,
                             arena, g_any, g_atom, g_bottom, g_functor,
                             g_int, g_int_literal, g_list_of, g_union,
                             g_intersect, normalize, opcache, subgrammar)
from repro.typegraph.grammar import _embed
from repro.typegraph.reference import (g_intersect_reference,
                                       g_le_reference, g_union_reference,
                                       normalize_reference)

# -- strategies (same shape as test_typegraph_properties's) ------------------

_ATOMS = ("a", "b", "[]", "foo")
_FUNCTORS = (("f", 1), ("g", 2), (".", 2), ("s", 1))


def _grammars(depth):
    if depth == 0:
        return st.one_of(
            st.sampled_from([g_any(), g_int(), g_bottom()]),
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
        st.builds(g_intersect, sub, sub),
    )


grammars = _grammars(2)
widths = st.sampled_from([None, 1, 2, 5])


@pytest.fixture(autouse=True, params=arena.available_kernels())
def _tier_swept_and_restored(request):
    """Sweep every available kernel tier (each must match the pure
    reference bit-for-bit) with the op caches emptied, so the kernels
    really compute, and restore the requested tier afterwards."""
    was_kernel = arena.kernel_status()["requested"]
    arena.configure(kernel=request.param)
    opcache.clear()
    yield
    arena.configure(kernel=was_kernel)


# -- bit-identity ------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(grammars, grammars)
def test_le_bit_identical(g1, g2):
    expected = g_le_reference(g1, g2)
    got = (True if g1.is_bottom()
           else False if g2.is_bottom()
           else arena.arena_le(g1, g2))
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(grammars, grammars, widths)
def test_union_bit_identical(g1, g2, w):
    assert arena.arena_union(g1, g2, w) is g_union_reference(g1, g2, w)


@settings(max_examples=200, deadline=None)
@given(grammars, grammars, widths)
def test_intersect_bit_identical(g1, g2, w):
    assert arena.arena_intersect(g1, g2, w) is \
        g_intersect_reference(g1, g2, w)


@settings(max_examples=150, deadline=None)
@given(grammars, st.sampled_from(list(_FUNCTORS)), grammars, widths)
def test_functor_bit_identical(g1, name_arity, g2, w):
    name, arity = name_arity
    children = (g1, g2)[:arity]
    builder = GrammarBuilder()
    root = builder.fresh()
    builder.add(root, FuncAlt(name, tuple(_embed(builder, c)
                                          for c in children)))
    assert g_functor(name, children, w) is \
        normalize_reference(builder.raw(root), w)


@settings(max_examples=200, deadline=None)
@given(grammars)
def test_subgrammar_bit_identical(g):
    for nt in g.rules:
        assert arena.arena_subgrammar(g, nt) is \
            normalize_reference(Grammar(g.rules, nt))


@settings(max_examples=150, deadline=None)
@given(grammars, grammars, widths)
def test_normalize_bit_identical_on_raw_merge(g1, g2, w):
    # a raw, messy grammar: two grammars glued side by side
    offset = len(g1.rules)
    rules = dict(g1.rules)
    for nt, alts in g2.rules.items():
        rules[nt + offset] = frozenset(
            FuncAlt(a.name, tuple(x + offset for x in a.args), a.is_int)
            if isinstance(a, FuncAlt) else a
            for a in alts)
    rules[len(rules)] = frozenset(
        [FuncAlt("glue", (g1.root, g2.root + offset))])
    raw = Grammar(rules, len(rules) - 1)
    assert arena.arena_normalize(Grammar(dict(rules), raw.root), w) is \
        normalize_reference(Grammar(dict(rules), raw.root), w)


# -- round-trips -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(grammars)
def test_compile_decompile_round_trip(g):
    compiled = arena.arena_of(g)
    assert arena.decompile(compiled).rules == g.rules
    # masks and rows agree with the rules they encode
    for nt, alts in g.rules.items():
        i = compiled.index_of(nt)
        assert ((compiled.any_mask >> i) & 1) == (ANY in alts)
        assert ((compiled.int_mask >> i) & 1) == (INT in alts)
        assert len(compiled.syms[i]) == \
            sum(1 for a in alts if isinstance(a, FuncAlt))


# -- pickling / symbol-table stability ---------------------------------------

@settings(max_examples=100, deadline=None)
@given(grammars, grammars, widths)
def test_pickled_grammars_reintern_and_agree(g1, g2, w):
    """Grammars that cross a pickle boundary (as in ``run_batch``
    workers) resolve to the same canonical instances and the arena
    ops on them return the very same objects."""
    r1 = pickle.loads(pickle.dumps(g1))
    r2 = pickle.loads(pickle.dumps(g2))
    assert r1 is g1 and r2 is g2  # same process: straight re-intern
    assert arena.arena_union(r1, r2, w) is arena.arena_union(g1, g2, w)


def test_symbol_table_is_per_process_only():
    """Arenas and symbol ids never travel through pickle — a worker
    rebuilds them from the rules, so nothing in the pickled payload
    depends on this process's symbol numbering."""
    g = g_functor("zzz_unpickled_only", [g_list_of(g_int())])
    payload = pickle.dumps(g)
    assert b"GrammarArena" not in payload
    assert b"SymbolTable" not in payload
    restored = pickle.loads(payload)
    assert restored is g
    # compiling after a round-trip yields consistent rows
    assert arena.decompile(arena.arena_of(restored)).rules == g.rules


def test_subgrammar_matches_reference_via_cache_too():
    g = g_list_of(g_functor("f", [g_int()]))
    for nt in g.rules:
        assert subgrammar(g, nt) is \
            normalize_reference(Grammar(g.rules, nt))


def test_arena_stats_counters_move():
    before = arena.stats()["compiles"]
    g = g_functor("stats_probe", [g_atom("a"), g_list_of(g_any())])
    g._arena = None  # force a fresh compile
    arena.arena_of(g)
    assert arena.stats()["compiles"] > before
    assert arena.stats()["symbols"] >= 2


@settings(max_examples=100, deadline=None)
@given(grammars, grammars)
def test_full_normalize_dispatch_identical(g1, g2):
    """public normalize == normalize_reference on the union of raw
    copies — the dispatcher itself is equivalence-checked."""
    rules = {0: frozenset([FuncAlt("pair", (g1.root + 1,
                                            g2.root + 1 + len(g1.rules)))])}
    for nt, alts in g1.rules.items():
        rules[nt + 1] = frozenset(
            FuncAlt(a.name, tuple(x + 1 for x in a.args), a.is_int)
            if isinstance(a, FuncAlt) else a for a in alts)
    off = 1 + len(g1.rules)
    for nt, alts in g2.rules.items():
        rules[nt + off] = frozenset(
            FuncAlt(a.name, tuple(x + off for x in a.args), a.is_int)
            if isinstance(a, FuncAlt) else a for a in alts)
    raw1 = Grammar(dict(rules), 0)
    raw2 = Grammar(dict(rules), 0)
    assert normalize(raw1) is normalize_reference(raw2)
