"""Cross-tier equivalence suite for the arena execution tiers (PR 8).

The arena kernels run at one of two tiers — ``python`` (reference and
no-compiler fallback) or ``native`` (lazily compiled C extension) —
selected by ``REPRO_ARENA_KERNEL`` or ``arena.configure(kernel=...)``.
The contract under test:

* **Same interned objects** — every grammar- and substitution-valued
  operation returns the *identical* canonical instance no matter which
  tier computed it (all tiers funnel through the same process-wide
  intern tables), so gids/sids, fingerprints, and serialized forms are
  tier-oblivious.
* **Round-trips** — compile → decompile reproduces the rules verbatim
  on every tier, and pickled grammars re-intern identically after a
  mid-process tier switch.
* **Graceful fallback** — when the toolchain is missing, or the
  environment names an unknown tier, the tier machinery records a
  reason and degrades; analysis results do not change.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.domains.leaf import TypeLeafDomain
from repro.domains.pattern import (PAT_BOTTOM, make_builder, subst_join,
                                   subst_le, subst_widen)
from repro.typegraph import (FuncAlt, Grammar, arena, g_any, g_atom,
                             g_bottom, g_functor, g_int, g_int_literal,
                             g_intersect, g_list_of, g_union, g_widen,
                             normalize, opcache)

TIERS = arena.available_kernels()


@pytest.fixture(autouse=True)
def _tier_and_caches_restored():
    """Run without the op caches (so each tier really executes) and
    put the requested tier back afterwards."""
    was_requested = arena.kernel_status()["requested"]
    was_cache = opcache.enabled()
    opcache.configure(enabled=False)
    yield
    opcache.configure(enabled=was_cache)
    arena.configure(kernel=was_requested)


def per_tier(fn):
    """``{tier: fn()}`` with the tier actually switched per call."""
    out = {}
    for tier in TIERS:
        arena.configure(kernel=tier)
        assert arena.kernel() == tier
        out[tier] = fn()
    return out


def assert_identical(results):
    first = next(iter(results.values()))
    for tier, value in results.items():
        assert value is first, (
            "tier %r produced a distinct object: %r vs %r"
            % (tier, value, first))
    return first


# -- strategies (same shape as test_arena_properties's) ----------------------

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
    )


grammars = _grammars(2)
widths = st.sampled_from([None, 1, 2, 5])


# -- grammar ops: same interned object on every tier -------------------------

@settings(max_examples=60, deadline=None)
@given(grammars, grammars, widths)
def test_union_same_interned_across_tiers(g1, g2, w):
    assert_identical(per_tier(lambda: g_union(g1, g2, w)))


@settings(max_examples=60, deadline=None)
@given(grammars, grammars, widths)
def test_intersect_same_interned_across_tiers(g1, g2, w):
    assert_identical(per_tier(lambda: g_intersect(g1, g2, w)))


@settings(max_examples=60, deadline=None)
@given(grammars, grammars)
def test_le_same_answer_across_tiers(g1, g2):
    from repro.typegraph import g_le
    answers = per_tier(lambda: g_le(g1, g2))
    assert len(set(answers.values())) == 1, answers


@settings(max_examples=40, deadline=None)
@given(grammars, grammars, widths, st.booleans())
def test_widen_same_interned_across_tiers(g_old, g_new, w, strict):
    assert_identical(per_tier(lambda: g_widen(g_old, g_new, w, strict)))


@settings(max_examples=40, deadline=None)
@given(grammars, st.sampled_from(list(_FUNCTORS)), grammars, widths)
def test_functor_same_interned_across_tiers(g1, name_arity, g2, w):
    name, arity = name_arity
    children = (g1, g2)[:arity]
    assert_identical(per_tier(lambda: g_functor(name, children, w)))


@settings(max_examples=40, deadline=None)
@given(grammars, grammars, widths)
def test_raw_normalize_same_interned_across_tiers(g1, g2, w):
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
    root = len(rules) - 1
    assert_identical(per_tier(
        lambda: normalize(Grammar(dict(rules), root), w)))


# -- compile/decompile round-trips per tier ----------------------------------

@settings(max_examples=60, deadline=None)
@given(grammars)
def test_compile_decompile_round_trip_per_tier(g):
    for tier in TIERS:
        arena.configure(kernel=tier)
        compiled = arena.arena_of(g)
        assert arena.decompile(compiled).rules == g.rules, tier


# -- pattern layer: same interned substitutions on every tier ----------------

_LEAF_VALUES = [g_any(), g_atom("a"), g_atom("b"), g_int(),
                g_list_of(g_any()), g_union(g_atom("a"), g_atom("b"))]

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

_DOMAIN = TypeLeafDomain()


def _build_subst(goals):
    """Run a goal script on the *active tier's* builder."""
    builder = make_builder(_DOMAIN)
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
    frozen = builder.freeze(nodes)
    return frozen


@settings(max_examples=50, deadline=None)
@given(_goals)
def test_builder_freeze_same_interned_across_tiers(goals):
    assert_identical(per_tier(lambda: _build_subst(goals)))


@settings(max_examples=40, deadline=None)
@given(_goals, _goals)
def test_subst_ops_same_across_tiers(goals1, goals2):
    s1 = assert_identical(per_tier(lambda: _build_subst(goals1)))
    s2 = assert_identical(per_tier(lambda: _build_subst(goals2)))
    if s1 is PAT_BOTTOM or s2 is PAT_BOTTOM:
        return
    assert_identical(per_tier(lambda: subst_join(s1, s2, _DOMAIN)))
    assert_identical(per_tier(lambda: subst_widen(s1, s2, _DOMAIN)))
    le = per_tier(lambda: subst_le(s1, s2, _DOMAIN))
    assert len(set(le.values())) == 1, le


# -- pickling across a tier switch -------------------------------------------

@settings(max_examples=40, deadline=None)
@given(grammars, grammars, widths)
def test_pickle_reinterns_identically_after_tier_switch(g1, g2, w):
    arena.configure(kernel=TIERS[-1])
    u = g_union(g1, g2, w)
    payload = pickle.dumps((g1, g2, u))
    arena.configure(kernel="python")
    r1, r2, ru = pickle.loads(payload)
    assert r1 is g1 and r2 is g2 and ru is u
    assert g_union(r1, r2, w) is u


# -- analysis fingerprints are tier-oblivious --------------------------------

def test_analysis_fingerprint_identical_across_tiers():
    from repro import analyze
    from repro.benchprogs import benchmark
    from repro.service.serialize import result_fingerprint

    bp = benchmark("QU")
    prints = per_tier(lambda: result_fingerprint(
        analyze(bp.source, bp.query, input_types=bp.input_types).result))
    assert len(set(prints.values())) == 1, prints


def test_negative_or_width_is_refused_on_every_tier(tmp_path):
    """The C kernels read a negative or-width as "no cap" (their
    sentinel for None) while the python tier caps, so the two tiers
    used to compute different tables for one.  Every tier now refuses
    it before a kernel runs: in the API with a ``ValueError``, in the
    CLI with exit status 2.  Width 0 is valid and tier-oblivious."""
    from repro import AnalysisConfig, analyze
    from repro.domains.leaf import DepthBoundLeafDomain, TypeLeafDomain
    from repro.service.serialize import result_fingerprint

    source = tmp_path / "app.pl"
    source.write_text("app([], X, X).\n"
                      "app([F|T], S, [F|R]) :- app(T, S, R).\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"),
         env.get("PYTHONPATH", "")])
    for tier in TIERS:
        arena.configure(kernel=tier)
        for width in (-1, -3, 2.0, "2"):
            with pytest.raises(ValueError):
                AnalysisConfig(max_or_width=width)
            with pytest.raises(ValueError):
                TypeLeafDomain(width)
            with pytest.raises(ValueError):
                DepthBoundLeafDomain(1, width)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", str(source), "app/3",
             "--or-width", "-3", "--json"],
            env=dict(env, REPRO_ARENA_KERNEL=tier), capture_output=True,
            timeout=180)
        assert proc.returncode == 2, (tier, proc.stderr)
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: or-width must be"), \
            proc.stderr
    prints = per_tier(lambda: result_fingerprint(analyze(
        source.read_text(), ("app", 3),
        config=AnalysisConfig(max_or_width=0)).result))
    assert len(set(prints.values())) == 1, prints


# -- tier selection / status --------------------------------------------------

def test_configure_rejects_unknown_tier():
    for name in ("fortran", "numpy"):
        with pytest.raises(ValueError):
            arena.configure(kernel=name)


@pytest.mark.parametrize("name", ["fortran", "numpy"])
def test_unknown_env_tier_is_recorded(name):
    """An unknown ``REPRO_ARENA_KERNEL`` value resolves as ``auto``,
    and ``kernel_status`` names the rejected value and why."""
    env = dict(os.environ, REPRO_ARENA_KERNEL=name)
    code = (
        "import json\n"
        "from repro.typegraph import arena\n"
        "print(json.dumps(arena.kernel_status()))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    status = json.loads(proc.stdout)
    assert status["requested"] == "auto"
    assert status["active"] in ("native", "python")
    reason = status["fallbacks"][name]
    assert "unknown REPRO_ARENA_KERNEL value %r" % name in reason
    assert "auto" in reason


def test_kernel_status_reports_active_tier():
    for tier in TIERS:
        arena.configure(kernel=tier)
        status = arena.kernel_status()
        assert status["requested"] == tier
        assert status["active"] == tier
        assert status["enabled"] in (True, False)


def test_python_tier_always_available():
    assert "python" in TIERS


# -- graceful fallback --------------------------------------------------------

def test_native_falls_back_without_toolchain(tmp_path, monkeypatch):
    """Requesting the native tier with no working compiler (and an
    empty build cache) degrades to the python tier and records why."""
    from repro.typegraph import _native

    monkeypatch.setenv("REPRO_KERNEL_CC", "/nonexistent-compiler")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "empty"))
    _native._reset_for_tests()
    try:
        arena.configure(kernel="native")
        status = arena.kernel_status()
        assert status["requested"] == "native"
        assert status["active"] == "python"
        assert "native" in status["fallbacks"]
        assert "native tier unavailable" in status["fallbacks"]["native"]
        # the degraded tier still computes (and interns) correctly
        assert g_union(g_atom("a"), g_atom("b")) is \
            g_union(g_atom("b"), g_atom("a"))
    finally:
        monkeypatch.delenv("REPRO_KERNEL_CC")
        monkeypatch.delenv("REPRO_KERNEL_CACHE")
        _native._reset_for_tests()


def test_kernel_cache_name_covers_the_compiler(tmp_path, monkeypatch):
    """The built .so is named by the source *and* the compile command:
    a second compiler gets its own build, the same one reuses its."""
    from repro.typegraph import _native

    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        with open(cmd[cmd.index("-o") + 1], "wb"):
            pass
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    source = _native._source_path()
    monkeypatch.setenv("REPRO_KERNEL_CC", "cc")
    first = _native._build(source)
    again = _native._build(source)
    monkeypatch.setenv("REPRO_KERNEL_CC", "clang")
    other = _native._build(source)
    assert first == again != other
    assert os.path.exists(first) and os.path.exists(other)
    assert [cmd[0] for cmd in commands] == ["cc", "clang"]


def test_fallback_process_produces_identical_results(tmp_path):
    """A full analysis in a subprocess with no toolchain matches this
    process's fingerprint bit-for-bit."""
    from repro import analyze
    from repro.benchprogs import benchmark
    from repro.service.serialize import result_fingerprint

    bp = benchmark("QU")
    here = result_fingerprint(
        analyze(bp.source, bp.query, input_types=bp.input_types).result)

    env = dict(os.environ)
    env["REPRO_ARENA_KERNEL"] = "native"
    env["REPRO_KERNEL_CC"] = "/nonexistent-compiler"
    env["REPRO_KERNEL_CACHE"] = str(tmp_path / "empty")
    code = (
        "from repro.typegraph import arena\n"
        "status = arena.kernel_status()\n"
        "assert status['active'] == 'python', status\n"
        "assert 'native' in status['fallbacks'], status\n"
        "from repro import analyze\n"
        "from repro.benchprogs import benchmark\n"
        "from repro.service.serialize import result_fingerprint\n"
        "bp = benchmark('QU')\n"
        "res = analyze(bp.source, bp.query, input_types=bp.input_types)\n"
        "print(result_fingerprint(res.result))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == here
