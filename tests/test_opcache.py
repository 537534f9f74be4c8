"""Unit tests for grammar interning and the operation cache layer."""

from repro import analyze
from repro.typegraph import (ANY, Grammar, arena, g_any, g_atom, g_bottom,
                             g_functor, g_int, g_int_literal, g_intersect,
                             g_le, g_list_of, g_union, g_widen, normalize)
from repro.typegraph import opcache
from repro.typegraph.grammar import intern_grammar


# -- interning ---------------------------------------------------------------

def test_normalize_returns_interned_shared_instance():
    g1 = g_union(g_atom("a"), g_atom("b"))
    g2 = g_union(g_atom("b"), g_atom("a"))
    assert g1.interned and g2.interned
    # structurally equal results are one object => identity equality
    assert g1 == g2
    if g1 is g2:
        assert hash(g1) == hash(g2)


def test_interned_constructors_are_shared():
    assert g_atom("foo") is g_atom("foo")
    assert g_int_literal(7) is g_int_literal(7)
    assert g_any() is normalize(g_any())
    assert g_list_of(g_int()) is g_list_of(g_int())


def test_intern_grammar_idempotent():
    raw = Grammar({0: frozenset([ANY])}, 0)
    first = intern_grammar(raw)
    assert intern_grammar(first) is first
    # a second raw grammar with the same key resolves to the canonical one
    again = intern_grammar(Grammar({0: frozenset([ANY])}, 0))
    assert again is first


def test_uninterned_grammars_still_compare_structurally():
    raw1 = Grammar({0: frozenset([ANY])}, 0)
    raw2 = Grammar({0: frozenset([ANY])}, 0)
    assert raw1 == raw2
    assert hash(raw1) == hash(raw2)
    assert raw1 == intern_grammar(Grammar({0: frozenset([ANY])}, 0))


# -- the LRU table -----------------------------------------------------------

def test_opcache_lru_bound_and_counters():
    cache = opcache.OpCache("test", maxsize=2)
    assert cache.get("a") is None          # miss
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1             # hit; refreshes "a"
    cache.put("c", 3)                      # evicts "b" (least recent)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert len(cache) == 2
    assert cache.hits == 3 and cache.misses == 2
    cache.reset()
    assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


def test_opcache_put_existing_key_updates():
    cache = opcache.OpCache("test", maxsize=2)
    cache.put("a", 1)
    cache.put("a", 10)
    assert cache.get("a") == 10
    assert len(cache) == 1


def test_stats_and_snapshot_shapes():
    stats = opcache.stats()
    for record in stats.values():
        assert set(record) == {"hits", "misses", "size"}
    hits, misses = opcache.snapshot()
    assert hits >= 0 and misses >= 0


# -- cached operations agree with themselves ---------------------------------

def test_clear_empties_every_table_on_both_layers():
    """``clear()`` empties the Python tables and, on the native tier,
    every C memo too: tests rely on it to make each tier compute."""
    a, b = g_atom("a"), g_atom("b")
    lst = g_list_of(g_union(a, b))
    g_widen(g_list_of(a), lst)
    g_intersect(lst, g_list_of(a))
    analyze("app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n",
            ("app", 3), input_types=["list", "list", "any"])
    native = arena.NATIVE
    if native is not None:
        counts = native.memo_stats()
        assert counts["functor"] > 0, counts
        assert all(counts.values()), counts
    opcache.clear()
    assert all(table["size"] == 0 for table in opcache.stats().values())
    if native is not None:
        counts = native.memo_stats()
        assert all(count == 0 for count in counts.values()), counts


def test_cached_ops_return_interned_results():
    a, b = g_atom("a"), g_atom("b")
    u = g_union(a, b)
    assert u.interned
    assert g_union(a, b) is u                    # memo hit
    assert g_intersect(u, u) is normalize(u)
    assert g_le(a, u) and not g_le(u, a)
    lst = g_list_of(a)
    w = g_widen(lst, g_union(lst, g_list_of(u)))
    assert w.interned
    assert g_widen(lst, g_union(lst, g_list_of(u))) is w


def test_g_functor_memoized_on_interned_children():
    a = g_atom("a")
    f1 = g_functor("f", [a, a])
    f2 = g_functor("f", (a, a))
    assert f1 is f2


# -- satellite: g_intersect fast paths respect max_or_width ------------------

def test_intersect_any_fast_path_applies_or_width_cap():
    wide = g_union(g_union(g_atom("a"), g_atom("b")), g_atom("c"))
    assert len(wide.root_alts) == 3
    capped = g_intersect(g_any(), wide, max_or_width=2)
    assert capped == g_any()  # 3 alternatives > cap 2 => Any
    capped2 = g_intersect(wide, g_any(), max_or_width=2)
    assert capped2 == g_any()
    # no cap: the fast path still returns the operand unchanged
    assert g_intersect(g_any(), wide) is wide
    # cap wide enough: unchanged too
    assert g_intersect(g_any(), wide, max_or_width=3) is wide


def test_intersect_bottom_fast_path():
    assert g_intersect(g_bottom(), g_any()).is_bottom()
    assert g_intersect(g_any(), g_bottom()).is_bottom()
