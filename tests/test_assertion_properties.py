"""Property tests for the assertion pipeline.

Hypothesis generates random (but well-formed) assertion directives and
pins the contract: parse → compile → serialize → deserialize is
stable — re-parsing an assertion's own rendered directive, or decoding
its encoded object, reproduces an equal assertion, and compilation
into the analysis domain is deterministic (the identical interned
substitution) on every execution tier.

Separately, the served verdicts are fingerprint-stable: ``repro
check`` verdicts hash identically across ``REPRO_ARENA_KERNEL`` tiers
and whether the payload was computed cold or served from a warm cache.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro import AnalysisConfig, analyze
from repro.assertions import (Assertion, compile_assertion,
                              harvest_assertions, parse_assertion)
from repro.benchprogs import benchmark
from repro.prolog.program import parse_program
from repro.service.serialize import check_fingerprint, encode_check
from repro.typegraph import arena, opcache

TIERS = arena.available_kernels()

# -- spec-term strategy -------------------------------------------------------

_atoms = st.sampled_from(["foo", "bar", "nil", "[]"])
_vars = st.sampled_from(["X", "Y", "Z"])
_grammar_atoms = st.sampled_from(["any", "int", "list", "codes"])


def _render_children(children):
    return ", ".join(children)


#: ``list(G)`` takes only grammar specs — generate those separately.
_grammar_spec = st.recursive(
    _grammar_atoms,
    lambda sub: sub.map(lambda s: "list(%s)" % s),
    max_leaves=3)

_spec = st.recursive(
    st.one_of(
        _grammar_atoms,
        _vars,
        _atoms,
        st.integers(-9, 9).map(str),
        _atoms.map(lambda a: "atom(%s)" % a),
        _grammar_spec.map(lambda s: "list(%s)" % s),
    ),
    lambda sub: st.builds(
        lambda name, cs: "%s(%s)" % (name, _render_children(cs)),
        st.sampled_from(["f", "g", "pair", "s"]),
        st.lists(sub, min_size=1, max_size=3)),
    max_leaves=6)

_assertions = st.builds(
    lambda kind, name, specs: parse_assertion(
        "%s(%s/%d, [%s])" % (kind, name, len(specs),
                             ", ".join(specs))),
    st.sampled_from(["assert_pattern", "assert_calls"]),
    st.sampled_from(["p", "q", "main"]),
    st.lists(_spec, min_size=1, max_size=4))


# -- parse / serialize round-trips -------------------------------------------

@settings(max_examples=120, deadline=None)
@given(_assertions)
def test_reparse_of_rendered_key_is_stable(assertion):
    reparsed = parse_assertion(assertion.key)
    assert reparsed == assertion
    assert reparsed.key == assertion.key
    # canonical: rendering the reparse changes nothing further
    assert parse_assertion(reparsed.key) == reparsed


@settings(max_examples=120, deadline=None)
@given(_assertions)
def test_obj_round_trip_is_identity(assertion):
    obj = assertion.to_obj()
    decoded = Assertion.from_obj(obj)
    assert decoded == assertion
    assert decoded.line == assertion.line
    assert decoded.to_obj() == obj


@settings(max_examples=60, deadline=None)
@given(_assertions)
def test_compilation_is_deterministic_and_tier_stable(assertion):
    from repro.domains.leaf import TypeLeafDomain
    domain = TypeLeafDomain()
    compiled = []
    for tier in TIERS:
        arena.configure(kernel=tier)
        try:
            compiled.append(compile_assertion(assertion, domain))
            compiled.append(compile_assertion(assertion, domain))
        finally:
            arena.configure(kernel=None)
    first = compiled[0]
    assert all(c is first for c in compiled), \
        "compilation not interned identically across tiers"


@settings(max_examples=60, deadline=None)
@given(_assertions)
def test_directive_survives_a_program_harvest(assertion):
    source = ":- %s.\n%s(%s).\n" % (
        assertion.key, assertion.pred[0],
        ", ".join("a%d" % i for i in range(assertion.pred[1])))
    harvested = harvest_assertions(parse_program(source))
    assert len(harvested) == 1
    assert harvested[0] == assertion
    assert harvested[0].line == 1


# -- verdict fingerprint stability -------------------------------------------

CHK = benchmark("CHK")


def _chk_fingerprint():
    source, query = CHK.source, CHK.query
    assertions = tuple(harvest_assertions(parse_program(source)))
    analysis = analyze(source, query, input_types=CHK.input_types,
                       config=AnalysisConfig(keep_deps=True,
                                             assertions=assertions))
    from repro.assertions import check_analysis
    report, slices = check_analysis(analysis, assertions)
    return check_fingerprint(encode_check(report, slices))


def test_check_fingerprint_identical_across_kernel_tiers():
    prints = {}
    for tier in TIERS:
        arena.configure(kernel=tier)
        opcache.clear()  # each tier executes, none replays the other
        try:
            prints[tier] = _chk_fingerprint()
        finally:
            arena.configure(kernel=None)
    assert len(set(prints.values())) == 1, prints


def test_check_fingerprint_identical_cold_vs_warm_cache(tmp_path):
    from repro.service.cache import ResultCache
    from repro.service.server import AnalysisServer

    cache_dir = str(tmp_path / "cache")

    async def one_server():
        server = AnalysisServer(port=0, cache=ResultCache(cache_dir))
        await server.start()
        cold = await server._op_check({"benchmark": "CHK"})
        warm = await server._op_check({"benchmark": "CHK"})
        await server.drain_and_close()
        return cold, warm

    cold, warm = asyncio.run(one_server())
    assert not cold["cached"] and warm["cached"]
    assert cold["check_fingerprint"] == warm["check_fingerprint"]
    assert cold["verdicts"] == warm["verdicts"]

    # a fresh process-equivalent: new server, disk-warm cache
    disk_cold, disk_warm = asyncio.run(one_server())
    assert disk_cold["cached"], "disk cache should have served this"
    assert disk_cold["check_fingerprint"] == cold["check_fingerprint"]
    assert _chk_fingerprint() == cold["check_fingerprint"]
