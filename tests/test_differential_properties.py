"""Differential-engine correctness properties.

The load-bearing theorem: abstract clause execution is a deterministic
function of an entry's β_in and the callee outputs at its call sites,
so skipping a clause with no dirty call site (joining its cached
output instead) — and resuming a dirty clause from a pre-call-site
snapshot — produces *bit-identical* analysis tables.  The hypothesis
properties below exercise it over random programs (mutual recursion,
shared callees, both schedulers) and compare semantic fingerprints
(:func:`repro.service.serialize.result_fingerprint`), which cover the
multiset of per-entry (predicate, β_in, β_out) tuples and the root
tuple — entry creation order is deliberately *not* pinned there; where
order matters the tests compare the entry lists directly.

Scheduler equivalence is deliberately narrower: iteration *order*
feeds the widening/join sequence, so on multi-SCC recursive programs
``scheduler="scc"`` may legitimately reach a different (equally sound)
fixpoint than ``"lifo"`` — that is why ``scheduler`` is part of the
cache key while ``differential`` is not.  Within a single strongly
connected component the SCC priority degenerates to the same LIFO
order, so bit-identity across schedulers *is* a theorem there; the
property pins exactly that.
"""

from hypothesis import given, settings, strategies as st

from repro import analyze
from repro.fixpoint.engine import AnalysisConfig
from repro.service.serialize import result_fingerprint
from repro.typegraph import opcache

# -- random program generator -------------------------------------------------

_FACTS1 = ["p%d([]).", "p%d(a).", "p%d(0).", "p%d(f(a,b))."]
_FACTS2 = ["p%d([], []).", "p%d(X, X).", "p%d(a, b)."]


@st.composite
def programs(draw, max_preds=4, same_scc=False):
    """Random terminating logic programs ``p0 .. p{n-1}``.

    Calls may target any predicate (mutual recursion and shared
    callees included).  With ``same_scc=True`` every predicate gets a
    clique-closing chain clause so the whole program is one strongly
    connected component (all arities forced to 1).

    **Boundedness invariant**: the nested-product clause
    ``p(f(X,Y)) :- q(X), r(Y)`` only ever draws its callees from the
    fact-only base predicate ``p0``.  Feeding a product constructor
    back into a recursive cycle (e.g. ``p2(f(X,Y)) :- p1(X), p0(Y)``
    with ``p0``/``p1`` list-recursing through ``p2``) makes the type
    graphs nest one constructor level per fixpoint round, and analysis
    time at unrestricted or-width explodes from milliseconds to
    minutes — the intermittent multi-minute examples this suite used
    to produce, roughly one draw in 700.  That pathology is pinned
    *deterministically* (and cheaply, under Table 3's or-width
    restriction) by ``test_product_in_recursive_cycle_restricted``;
    the random generator keeps every draw fast."""
    npreds = draw(st.integers(1, max_preds))
    if same_scc:
        arities = [1] * npreds
    else:
        # p0 is the designated fact-only base: arity 1, no rule
        # clauses, the only callee nested-product clauses may use
        arities = [1] + [draw(st.sampled_from([1, 2]))
                         for _ in range(npreds - 1)]
    lines = []
    any_pred = st.integers(0, npreds - 1)
    for i in range(npreds):
        arity = arities[i]
        # at least one fact so the predicate can succeed
        if arity == 1:
            lines.append(draw(st.sampled_from(_FACTS1)) % i)
        else:
            lines.append(draw(st.sampled_from(_FACTS2)) % i)
        if i == 0 and not same_scc:
            continue  # keep the product base fact-only
        for _ in range(draw(st.integers(0, 2))):
            j = draw(any_pred)
            k = draw(any_pred)
            if arity == 1:
                kind = draw(st.integers(0, 3))
                if kind == 0 and arities[j] == 1:
                    lines.append("p%d([_|T]) :- p%d(T)." % (i, j))
                elif kind == 1 and arities[j] == 1:
                    lines.append("p%d(X) :- p%d(X)." % (i, j))
                elif kind == 2 and not same_scc:
                    # products take the fact-only base (boundedness
                    # invariant above); inside the forced clique of
                    # same_scc there is no safe callee, so no products
                    lines.append("p%d(f(X,Y)) :- p0(X), p0(Y)." % i)
                elif arities[j] == 2:
                    lines.append("p%d(X) :- p%d(X, _)." % (i, j))
                else:
                    lines.append("p%d([_|T]) :- p%d(T)." % (i, j))
            else:
                kind = draw(st.integers(0, 2))
                if kind == 0 and arities[j] == 2:
                    lines.append("p%d([A|T], [A|S]) :- p%d(T, S)."
                                 % (i, j))
                elif kind == 1 and arities[j] == 2:
                    lines.append("p%d(X, Y) :- p%d(Y, X)." % (i, j))
                elif arities[j] == 1 and arities[k] == 1:
                    # argument-wise product: no constructor nesting,
                    # safe with any callees
                    lines.append("p%d(X, Y) :- p%d(X), p%d(Y)."
                                 % (i, j, k))
                else:
                    lines.append("p%d(X, Y) :- p%d(X, Y)." % (i, j))
    if same_scc:
        for i in range(npreds):
            lines.append("p%d(X) :- p%d(X)." % (i, (i + 1) % npreds))
    query = ("p%d" % (npreds - 1), arities[npreds - 1])
    return "\n".join(lines), query


def _run(source, query, differential, scheduler="lifo"):
    """One cold analysis: the memos are emptied first, so each side of
    a comparison really executes instead of replaying the other's
    recorded clause runs."""
    opcache.clear()
    return analyze(source, query,
                   config=AnalysisConfig(differential=differential,
                                         scheduler=scheduler))


# -- differential on/off is bit-identical (any program, any scheduler) --------

@given(programs())
@settings(max_examples=60, deadline=None)
def test_differential_bitidentical_lifo(program):
    source, query = program
    on = _run(source, query, differential=True)
    off = _run(source, query, differential=False)
    assert result_fingerprint(on.result) == result_fingerprint(off.result)
    # β_out per entry, stated directly (the fingerprint covers it, but
    # a divergence here localizes the failing entry)
    for a, b in zip(on.result.entries, off.result.entries):
        assert a.pred == b.pred
        assert a.beta_in == b.beta_in
        assert a.beta_out == b.beta_out


@given(programs())
@settings(max_examples=30, deadline=None)
def test_differential_bitidentical_scc(program):
    source, query = program
    on = _run(source, query, differential=True, scheduler="scc")
    off = _run(source, query, differential=False, scheduler="scc")
    assert result_fingerprint(on.result) == result_fingerprint(off.result)


# -- scc == lifo inside one strongly connected component ----------------------

@given(programs(same_scc=True))
@settings(max_examples=40, deadline=None)
def test_scheduler_bitidentical_single_scc(program):
    source, query = program
    lifo = _run(source, query, differential=True, scheduler="lifo")
    scc = _run(source, query, differential=True, scheduler="scc")
    assert scc.stats.scheduler == "scc"
    assert result_fingerprint(lifo.result) == result_fingerprint(scc.result)


# -- the product-in-cycle pathology, pinned deterministically -----------------

# The program shape the random generator is no longer allowed to draw
# (see the boundedness invariant on ``programs``): a nested-product
# clause whose callees list-recurse back through it.  Unrestricted
# analysis of this program needs minutes; under Table 3's or-width
# restriction it is milliseconds, so the differential property stays
# checkable on exactly the shape that used to hang the suite.
_PRODUCT_IN_CYCLE = """
p0(f(a,b)).
p0([_|T]) :- p1(T).
p0([_|T]) :- p2(T).
p1([]).
p1([_|T]) :- p0(T).
p1([_|T]) :- p2(T).
p2(a).
p2(X) :- p2(X).
p2(f(X,Y)) :- p1(X), p0(Y).
"""


def test_product_in_recursive_cycle_restricted():
    for width in (2, 3):
        config_on = AnalysisConfig(differential=True,
                                   max_or_width=width)
        config_off = AnalysisConfig(differential=False,
                                    max_or_width=width)
        opcache.clear()
        on = analyze(_PRODUCT_IN_CYCLE, ("p2", 1), config=config_on)
        opcache.clear()
        off = analyze(_PRODUCT_IN_CYCLE, ("p2", 1), config=config_off)
        assert result_fingerprint(on.result) == \
            result_fingerprint(off.result)


# -- stats invariants ---------------------------------------------------------

def _clause_work_identity(analysis):
    """Every procedure iteration accounts every clause of its
    predicate exactly once, as executed or skipped."""
    nclauses = {pred: len(proc.clauses)
                for pred, proc in analysis.norm.procedures.items()}
    potential = sum(e.iterations * nclauses[e.pred]
                    for e in analysis.result.entries)
    stats = analysis.stats
    assert stats.clause_iterations + stats.clause_iterations_skipped \
        == potential
    assert stats.callsite_resumptions <= stats.clause_iterations


@given(programs())
@settings(max_examples=40, deadline=None)
def test_clause_work_accounting(program):
    source, query = program
    on = _run(source, query, differential=True)
    _clause_work_identity(on)
    off = _run(source, query, differential=False)
    assert off.stats.clause_iterations_skipped == 0
    assert off.stats.callsite_resumptions == 0
    _clause_work_identity(off)
    # differential never does *more* clause work than full re-execution
    assert on.stats.clause_iterations <= off.stats.clause_iterations
