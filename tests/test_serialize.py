"""Tests for the canonical serialization and content-hashing layer."""

import copy
import json

import pytest

from repro import AnalysisConfig, analyze
from repro.domains.leaf import (TrivialLeafDomain, TypeLeafDomain,
                                domain_from_descriptor)
from repro.domains.pattern import PAT_BOTTOM, subst_eq, subst_top
from repro.service.serialize import (FORMAT_VERSION, canonical_json,
                                     config_hash, content_hash,
                                     decode_config, decode_grammar,
                                     decode_input_types, decode_result,
                                     decode_subst, encode_config,
                                     encode_grammar, encode_input_types,
                                     encode_result, encode_subst,
                                     payload_fingerprint, predicate_hashes,
                                     program_hash)
from repro.typegraph.grammar import (Grammar, g_any, g_atom, g_bottom,
                                     g_int, g_int_literal)
from repro.typegraph.ops import g_list_of, g_union


def json_rt(obj):
    """Force a real trip through JSON text."""
    return json.loads(json.dumps(obj))


# -- grammars ----------------------------------------------------------------

@pytest.mark.parametrize("grammar", [
    g_any(), g_bottom(), g_int(), g_atom("a"), g_atom("[]"),
    g_int_literal(42), g_list_of(g_int()),
    g_union(g_atom("a"), g_int()),
    g_list_of(g_list_of(g_any())),
])
def test_grammar_roundtrip(grammar):
    assert decode_grammar(json_rt(encode_grammar(grammar))) == grammar


def test_grammar_encoding_is_canonical():
    g1 = g_union(g_atom("a"), g_int())
    g2 = g_union(g_int(), g_atom("a"))
    assert canonical_json(encode_grammar(g1)) == \
        canonical_json(encode_grammar(g2))


# -- substitutions -----------------------------------------------------------

def test_subst_bottom_roundtrip(type_domain):
    assert decode_subst(json_rt(encode_subst(PAT_BOTTOM, type_domain)),
                        type_domain) is PAT_BOTTOM


def test_subst_top_roundtrip(type_domain):
    top = subst_top(3, type_domain)
    assert decode_subst(json_rt(encode_subst(top, type_domain)),
                        type_domain) == top


def test_subst_with_patterns_roundtrip(nreverse_source, type_domain):
    analysis = analyze(nreverse_source, ("nreverse", 2))
    for entry in analysis.result.entries:
        for subst in (entry.beta_in, entry.beta_out):
            data = json_rt(encode_subst(subst, analysis.domain))
            assert decode_subst(data, analysis.domain) == subst


def test_subst_trivial_domain_roundtrip(trivial_domain):
    top = subst_top(2, trivial_domain)
    assert decode_subst(json_rt(encode_subst(top, trivial_domain)),
                        trivial_domain) == top


# -- whole results -----------------------------------------------------------

def test_result_roundtrip(nreverse_source):
    analysis = analyze(nreverse_source, ("nreverse", 2))
    result = analysis.result
    decoded = decode_result(json_rt(encode_result(result)))
    assert len(decoded.entries) == len(result.entries)
    for original, restored in zip(result.entries, decoded.entries):
        assert restored.id == original.id
        assert restored.pred == original.pred
        assert restored.beta_in == original.beta_in
        assert restored.beta_out == original.beta_out
        assert restored.dependents == original.dependents
    assert decoded.root_entry.id == result.root_entry.id
    assert decoded.output == result.output
    assert decoded.unknown_predicates == result.unknown_predicates
    assert decoded.stats.procedure_iterations == \
        result.stats.procedure_iterations


def test_result_roundtrip_baseline(nreverse_source):
    analysis = analyze(nreverse_source, ("nreverse", 2), baseline=True)
    decoded = decode_result(json_rt(encode_result(analysis.result)))
    assert isinstance(decoded.domain, TrivialLeafDomain)
    assert subst_eq(decoded.output, analysis.result.output,
                    decoded.domain)


def test_result_rejects_unknown_version(nreverse_source):
    analysis = analyze(nreverse_source, ("nreverse", 2))
    payload = encode_result(analysis.result)
    payload["version"] = FORMAT_VERSION + 1
    with pytest.raises(ValueError):
        decode_result(payload)


#: Each way a hostile peer can break a payload's leaf table.
LEAF_TABLE_BREAKAGES = ("dangling", "negative", "fraction", "string",
                        "boolean", "no-leaves", "inline")


def break_leaf_table(payload, breakage):
    """A copy of ``payload`` with its leaf table broken as named in
    :data:`LEAF_TABLE_BREAKAGES`: the first leaf reference made
    dangling, negative, non-integer or an inline (v7-style) leaf, or
    the ``leaves`` list removed."""
    broken = copy.deepcopy(payload)
    if breakage == "no-leaves":
        del broken["leaves"]
        return broken
    node = next(node for entry in broken["entries"]
                for subst in (entry["beta_in"], entry["beta_out"])
                if subst != "bottom"
                for node in subst["nodes"] if node[0] == "l")
    node[1] = {"dangling": len(broken["leaves"]), "negative": -1,
               "fraction": 0.5, "string": "0", "boolean": False,
               "inline": broken["leaves"][0]}[breakage]
    return broken


@pytest.mark.parametrize("breakage", LEAF_TABLE_BREAKAGES)
def test_result_rejects_a_broken_leaf_table(nreverse_source, breakage):
    payload = json_rt(encode_result(
        analyze(nreverse_source, ("nreverse", 2)).result))
    broken = break_leaf_table(payload, breakage)
    with pytest.raises(ValueError):
        decode_result(broken)
    with pytest.raises(ValueError):
        payload_fingerprint(broken)


def test_result_decodes_each_distinct_leaf_once(nreverse_source,
                                                monkeypatch):
    payload = json_rt(encode_result(
        analyze(nreverse_source, ("nreverse", 2)).result))
    uses = sum(node[0] == "l" for entry in payload["entries"]
               for subst in (entry["beta_in"], entry["beta_out"])
               if subst != "bottom" for node in subst["nodes"])
    assert uses > len(payload["leaves"]) > 1
    decoded = []
    real = Grammar.from_obj.__func__
    monkeypatch.setattr(Grammar, "from_obj", classmethod(
        lambda cls, data: decoded.append(data) or real(cls, data)))
    decode_result(payload)
    assert decoded == payload["leaves"]


# -- domain descriptors ------------------------------------------------------

def test_domain_descriptor_roundtrip():
    domain = TypeLeafDomain(max_or_width=5)
    rebuilt = domain_from_descriptor(json_rt(domain.descriptor()))
    assert isinstance(rebuilt, TypeLeafDomain)
    assert rebuilt.max_or_width == 5
    trivial = domain_from_descriptor(
        json_rt(TrivialLeafDomain().descriptor()))
    assert isinstance(trivial, TrivialLeafDomain)


def test_domain_descriptor_type_database():
    domain = TypeLeafDomain(type_database=[g_list_of(g_int())])
    rebuilt = domain_from_descriptor(json_rt(domain.descriptor()))
    assert rebuilt.type_database == [g_list_of(g_int())]


# -- configs and input types -------------------------------------------------

def test_config_roundtrip():
    config = AnalysisConfig(max_or_width=2, max_input_patterns=4,
                            widening_delay=1,
                            type_database=[g_list_of(g_any())])
    decoded = decode_config(json_rt(encode_config(config)))
    assert decoded == config


def test_config_hash_distinguishes():
    assert config_hash(AnalysisConfig()) == config_hash(None)
    assert config_hash(AnalysisConfig(max_or_width=5)) != \
        config_hash(AnalysisConfig())


def test_config_roundtrip_engine_knobs():
    config = AnalysisConfig(differential=False, scheduler="scc")
    decoded = decode_config(json_rt(encode_config(config)))
    assert decoded.differential is False
    assert decoded.scheduler == "scc"


def test_config_hash_engine_knob_semantics():
    # differential on/off computes bit-identical tables, so it must
    # not split the result cache; the scheduler may reach a different
    # (equally sound) table, so it must.
    assert config_hash(AnalysisConfig(differential=False)) == \
        config_hash(AnalysisConfig())
    assert config_hash(AnalysisConfig(scheduler="scc")) != \
        config_hash(AnalysisConfig())


def test_input_types_roundtrip():
    assert decode_input_types(encode_input_types(None)) is None
    specs = ["list", "any", g_list_of(g_int())]
    decoded = decode_input_types(json_rt(encode_input_types(specs)))
    assert decoded[:2] == ["list", "any"]
    assert decoded[2] == g_list_of(g_int())


# -- program hashing ---------------------------------------------------------

def test_program_hash_ignores_whitespace_and_comments(append_source):
    noisy = "% a comment\n" + append_source.replace("\n", "\n\n") + "   \n"
    assert program_hash(append_source) == program_hash(noisy)


def test_program_hash_sees_clause_changes(append_source):
    edited = append_source + "\nappend(x, y, z).\n"
    assert program_hash(append_source) != program_hash(edited)


def test_predicate_hashes_are_per_predicate(nreverse_source):
    hashes = predicate_hashes(nreverse_source)
    assert set(hashes) == {("append", 3), ("nreverse", 2)}
    edited = nreverse_source + "\nnreverse(x, x).\n"
    new_hashes = predicate_hashes(edited)
    assert new_hashes[("append", 3)] == hashes[("append", 3)]
    assert new_hashes[("nreverse", 2)] != hashes[("nreverse", 2)]


def test_program_hash_parses_a_text_once(monkeypatch):
    from repro.service import serialize
    parsed = []
    real = serialize.parse_program
    monkeypatch.setattr(serialize, "parse_program",
                        lambda text: parsed.append(text) or real(text))
    text = "memo_probe(a).\nmemo_probe(b) :- memo_probe(a).\n"
    first = program_hash(text)
    assert program_hash(text) == first == program_hash(real(text))
    assert parsed == [text]


def test_content_hash_stable_across_key_order():
    assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})


def test_payload_fingerprint_matches_result_fingerprint(nreverse_source):
    from repro.service.serialize import (payload_fingerprint,
                                         result_fingerprint)
    for baseline in (False, True):
        result = analyze(nreverse_source, ("nreverse", 2),
                         baseline=baseline).result
        payload = json_rt(encode_result(result))
        assert payload_fingerprint(payload) == result_fingerprint(result)


def _inline_fingerprint(payload):
    """The payload fingerprint computed the direct way: each entry's
    tuple encoded with every leaf reference replaced by its value."""
    from repro.service.serialize import table_fingerprint

    def inline(subst):
        if subst == "bottom":
            return subst
        return dict(subst, nodes=[
            ["l", payload["leaves"][node[1]]] if node[0] == "l" else node
            for node in subst["nodes"]])

    return table_fingerprint(
        payload["domain"],
        {e["id"]: canonical_json({"pred": e["pred"],
                                  "beta_in": inline(e["beta_in"]),
                                  "beta_out": inline(e["beta_out"]),
                                  "seeded": False})
         for e in payload["entries"]},
        payload["root"], payload["unknown_predicates"])


@pytest.mark.parametrize("name", ["QU", "RE", "CHK"])
def test_payload_fingerprint_splices_the_inline_texts(name):
    """Each distinct leaf is encoded once and spliced in; the bytes
    hashed are the inline tuples', also when a malformed payload holds
    the splice placeholder outside a leaf node."""
    from repro.benchprogs import benchmark
    bp = benchmark(name)
    payload = json_rt(encode_result(analyze(
        bp.source, bp.query, input_types=bp.input_types).result))
    assert payload_fingerprint(payload) == _inline_fingerprint(payload)
    odd = copy.deepcopy(payload)
    subst = next(e["beta_out"] for e in odd["entries"]
                 if e["beta_out"] != "bottom")
    subst["x"] = ["l", float("nan")]
    assert payload_fingerprint(odd) == _inline_fingerprint(odd)
    assert payload_fingerprint(odd) != payload_fingerprint(payload)


def test_stats_roundtrip_disjunction_fallbacks():
    disj = " , ".join("(X%d = a ; X%d = b)" % (i, i) for i in range(8))
    head = ", ".join("X%d" % i for i in range(8))
    result = analyze("p(%s) :- %s.\n" % (head, disj), ("p", 8)).result
    assert result.stats.disjunction_fallbacks > 0
    decoded = decode_result(json_rt(encode_result(result)))
    assert (decoded.stats.disjunction_fallbacks
            == result.stats.disjunction_fallbacks)
