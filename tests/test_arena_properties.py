"""Property suite for the arena kernel (PR 4).

Three contracts:

* **Bit-identity** — every arena kernel returns exactly what the
  retained reference path returns: the *same interned object* for
  grammar-valued operations (union, intersection, functor, subgrammar,
  normalize, widening), the same boolean for inclusion.  Checked with
  hypothesis over random grammars, with the operation caches disabled
  so both paths really execute.
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

from repro.typegraph import (ANY, INT, FuncAlt, Grammar, arena, g_any,
                             g_atom, g_bottom, g_functor, g_int,
                             g_int_literal, g_list_of, g_union,
                             g_intersect, g_widen, intern_grammar,
                             normalize, normalize_reference, opcache,
                             subgrammar)
from repro.typegraph.ops import (_g_intersect_reference, _g_le_reference,
                                 _g_union_reference)

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
def _uncached_and_arena_restored(request):
    """Disable the op caches (so both paths really compute), sweep
    every available kernel tier (PR 8: each tier must match the pure
    reference bit-for-bit), and restore the knobs afterwards."""
    was_cache = opcache.enabled()
    was_arena = arena.enabled()
    was_kernel = arena.kernel_status()["requested"]
    opcache.configure(enabled=False)
    arena.configure(enabled=True, kernel=request.param)
    yield
    opcache.configure(enabled=was_cache)
    arena.configure(enabled=was_arena, kernel=was_kernel)


def _with_arena(enabled, fn):
    arena.configure(enabled=enabled)
    try:
        return fn()
    finally:
        arena.configure(enabled=True)


# -- bit-identity ------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(grammars, grammars)
def test_le_bit_identical(g1, g2):
    expected = _g_le_reference(g1, g2)
    got = (True if g1.is_bottom()
           else False if g2.is_bottom()
           else arena.arena_le(g1, g2))
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(grammars, grammars, widths)
def test_union_bit_identical(g1, g2, w):
    assert arena.arena_union(g1, g2, w) is _g_union_reference(g1, g2, w)


@settings(max_examples=200, deadline=None)
@given(grammars, grammars, widths)
def test_intersect_bit_identical(g1, g2, w):
    assert arena.arena_intersect(g1, g2, w) is \
        _g_intersect_reference(g1, g2, w)


@settings(max_examples=150, deadline=None)
@given(grammars, st.sampled_from(list(_FUNCTORS)), grammars, widths)
def test_functor_bit_identical(g1, name_arity, g2, w):
    name, arity = name_arity
    children = (g1, g2)[:arity]
    assert _with_arena(True, lambda: g_functor(name, children, w)) is \
        _with_arena(False, lambda: g_functor(name, children, w))


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


@settings(max_examples=100, deadline=None)
@given(grammars, grammars, widths, st.booleans())
def test_widen_bit_identical(g_old, g_new, w, strict):
    assert _with_arena(True, lambda: g_widen(g_old, g_new, w, strict)) \
        is _with_arena(False, lambda: g_widen(g_old, g_new, w, strict))


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


@settings(max_examples=100, deadline=None)
@given(grammars)
def test_reachability_bitsets(g):
    compiled = arena.arena_of(g)
    reach = compiled.reach()
    # reach agrees with a straightforward BFS over the rules
    for nt in g.rules:
        seen = {nt}
        queue = [nt]
        while queue:
            current = queue.pop()
            for alt in g.rules[current]:
                if isinstance(alt, FuncAlt):
                    for child in alt.args:
                        if child not in seen:
                            seen.add(child)
                            queue.append(child)
        mask = reach[compiled.index_of(nt)]
        decoded = {nt2 for nt2 in g.rules
                   if (mask >> compiled.index_of(nt2)) & 1}
        assert decoded == seen


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
    opcache.configure(enabled=True)
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
    """public normalize (arena on) == normalize_reference on the union
    of raw copies — the dispatcher itself is equivalence-checked."""
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
    assert _with_arena(True, lambda: normalize(raw1)) is \
        normalize_reference(raw2)
