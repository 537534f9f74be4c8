"""The fixpoint engine (paper §4, in the style of GAIA).

A worklist algorithm over a table of *entries* ``(pred, β_in) → β_out``:

* **polyvariant**: distinct input patterns get distinct entries, up to a
  per-predicate cap; beyond the cap new inputs are *widened* into the
  most recent entry's input (the call-pattern widening of §7.1 case 2,
  and the input-pattern collapsing discussed in §8/§9 for RE);
* clause bodies execute abstractly left-to-right on a
  :class:`~repro.domains.pybuilder.SubstBuilder`; procedure calls look up
  the table and record a dependency edge, so an improved callee result
  reschedules its callers;
* clause results are joined (operation UNION) and, after
  ``widening_delay`` updates, widened against the previous output
  (operation WIDEN) — delaying the widening "until the structure of the
  type appears clearly", as §2 requires for the AR1 example.

**Differential re-evaluation** (default, ``AnalysisConfig.differential``):
the worklist is clause-granular underneath.
Dependencies are recorded per *call site* — ``(entry, clause index,
call-site index)`` — and each entry caches every clause's last output,
so re-analyzing an entry only re-executes clauses with a *dirty* call
site (one whose callee tuple updated since the clause last ran) and
joins the cached outputs of the rest.  Abstract clause execution is a
deterministic function of the entry's β_in and the callee outputs at
its call sites, so the joined result — and therefore every β_out and
the whole table — is bit-identical to full re-execution; only the
`clause_iterations` work drops.  A dirty clause additionally resumes
from a :meth:`~repro.domains.pybuilder.SubstBuilder.fork` snapshot taken
just before its first dirty call site instead of from the clause head
(GAIA-style prefix resumption, counted in
``AnalysisStats.callsite_resumptions``).  Call-site granularity also
lets the engine drop stale edges — a call site that re-resolves to a
different table entry unsubscribes from the old one — and skip
scheduling dependents that end up with no dirty clause (the stale
self-edge case), so wasted procedure iterations disappear as well.

**The clause memo** carries the same determinism argument across
analyses.  Abstract execution of a clause depends on nothing but the
clause's goals (and, per call, whether the callee is defined), the
leaf domain, β_in and the callee outputs its call sites read, so every
execution is recorded in one process-wide trie (the ``"clause"`` table
of :mod:`repro.typegraph.opcache`).  Its root key is ``(domain did,
clause content, β_in)``.  A call node holds the frozen β_call the call
site issued, with one child per callee output it has seen; a leaf
holds the clause output.  A later analysis — a served edit, the next
request, the same entry's next iteration — *replays* the walk: it
issues exactly the ``_solve``, call-site binding and dependency side
effects execution would, in the same order, and does no builder work
until a callee output leads off the recorded trie.  There it forks the
builder snapshot execution took at that call site, or, where the site
was replayed and has none, rebuilds the builder by re-running the
prefix with the recorded callee outputs; then it executes the rest,
recording it.  A trie node doubles as the call site's snapshot, so a
resumed clause continues the walk from it.  Every decision — which
clauses run, where they resume, what they output — is the one
execution would make, so a warm table, its counters and its dependency
graph equal the cold run's.  Domains whose did is per instance (a type
database) record nothing.

**Scheduling**: the default worklist is a LIFO stack (newly discovered
callees are analyzed before their callers retry — GAIA's top-down
descent).  ``AnalysisConfig.scheduler="scc"`` switches to an opt-in
SCC-stratified priority queue: entries of callee-most strongly
connected components (``repro.analysis.callgraph.norm_scc_indices``)
are driven to a local fixpoint before their callers resume, cutting
wasted caller iterations on deep programs.

Statistics match Table 3: procedure iterations (entry analyses) and
clause iterations; ``clause_iterations_skipped`` counts clause runs the
differential mode avoided (executed + skipped = what a full engine
would have executed over the same procedure iterations).
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from .._record import Record
from ..domains.leaf import LeafDomain, TypeLeafDomain, check_or_width
from ..domains.pattern import (AbstractSubst, PAT_BOTTOM, make_builder,
                               subst_eq, subst_join, subst_le, subst_top,
                               subst_widen)
from ..prolog.normalize import NBuild, NCall, NUnify, NormClause, NormProgram
from ..prolog.program import PredId
from ..typegraph import arena, opcache
from .builtins import BUILTINS, tag_value

__all__ = ["AnalysisConfig", "AnalysisStats", "Entry", "AnalysisResult",
           "Engine", "AnalysisBudgetExceeded", "SCHEDULERS"]

#: Recognized ``AnalysisConfig.scheduler`` values.
SCHEDULERS = ("lifo", "scc")


class AnalysisBudgetExceeded(RuntimeError):
    """The global iteration budget was exhausted (safety net; should not
    happen — widening guarantees termination)."""


class AnalysisConfig(Record):
    """Tunables of the analysis.

    ``max_or_width`` is Table 3's or-degree restriction (None, 5, 2);
    anything but None or an integer >= 0 is a ``ValueError``.
    ``max_input_patterns`` bounds polyvariance per predicate.
    ``widening_delay`` counts output updates joined before widening
    kicks in.
    ``differential`` toggles clause-granular differential re-evaluation
    (results are bit-identical either way; ``False`` is the full
    re-evaluation reference the differential tests compare against).
    ``scheduler`` picks the worklist policy: ``"lifo"`` (default, the
    paper's descent order) or ``"scc"`` (callee SCCs first).
    ``keep_deps`` retains the differential engine's per-(entry, clause,
    call-site) dependency edges on the :class:`AnalysisResult` after
    the fixpoint — the provenance graph assertion blame slicing walks.
    It forces differential mode on (overriding ``differential``:
    without the clause-granular bookkeeping there are no edges to
    keep) and, like ``differential``, never changes the computed
    table.
    ``assertions`` carries the program's assertion directives (see
    :mod:`repro.assertions`) so they participate in the config hash:
    a cached payload with verdicts folded in can only be keyed by a
    config that pins the assertions it verified.
    """

    __slots__ = ("max_or_width", "max_input_patterns", "widening_delay",
                 "strict_widening_after", "max_procedure_iterations",
                 "type_database", "differential", "scheduler",
                 "keep_deps", "assertions")

    def __init__(self, max_or_width: Optional[int] = None,
                 max_input_patterns: int = 8,
                 widening_delay: int = 2,
                 strict_widening_after: int = 12,
                 max_procedure_iterations: int = 200000,
                 type_database: Optional[list] = None,  # §10 extension
                 differential: bool = True,
                 scheduler: str = "lifo",
                 keep_deps: bool = False,
                 assertions: tuple = ()) -> None:
        self.max_or_width = check_or_width(max_or_width)
        self.max_input_patterns = max_input_patterns
        self.widening_delay = widening_delay
        self.strict_widening_after = strict_widening_after
        self.max_procedure_iterations = max_procedure_iterations
        self.type_database = type_database
        self.differential = differential
        self.scheduler = scheduler
        self.keep_deps = keep_deps
        #: tuple of :class:`repro.assertions.Assertion` (kept untyped
        #: to avoid an import cycle; the engine itself never reads it)
        self.assertions = assertions


class AnalysisStats(Record):
    """The counters of one analysis run (Table 3's iterations and the
    engine's own bookkeeping)."""

    __slots__ = ("procedure_iterations", "clause_iterations",
                 "entries_created", "input_widenings", "cpu_time",
                 "opcache_hits", "opcache_misses",
                 "clause_iterations_skipped", "callsite_resumptions",
                 "scheduler", "arena_compiles", "disjunction_fallbacks")

    def __init__(self, procedure_iterations: int = 0,
                 clause_iterations: int = 0,
                 entries_created: int = 0,
                 input_widenings: int = 0,
                 cpu_time: float = 0.0,
                 opcache_hits: int = 0,
                 opcache_misses: int = 0,
                 clause_iterations_skipped: int = 0,
                 callsite_resumptions: int = 0,
                 scheduler: str = "lifo",
                 arena_compiles: int = 0,
                 disjunction_fallbacks: int = 0) -> None:
        self.procedure_iterations = procedure_iterations
        self.clause_iterations = clause_iterations
        self.entries_created = entries_created
        self.input_widenings = input_widenings
        self.cpu_time = cpu_time
        #: type-graph operation cache traffic attributed to this run
        #: (the delta of :func:`repro.typegraph.opcache.snapshot`
        #: across :meth:`Engine.analyze`); both stay 0 with caching
        #: disabled.
        self.opcache_hits = opcache_hits
        self.opcache_misses = opcache_misses
        #: clause runs the differential mode proved redundant and
        #: skipped (their cached output was joined instead of
        #: re-executing); ``clause_iterations +
        #: clause_iterations_skipped`` equals the clause work a
        #: non-differential engine performs for the same procedure
        #: iterations.
        self.clause_iterations_skipped = clause_iterations_skipped
        #: dirty clause runs that resumed from a pre-call-site snapshot
        #: instead of re-executing the clause from its head.
        self.callsite_resumptions = callsite_resumptions
        #: worklist policy the run used (provenance for bench reports).
        self.scheduler = scheduler
        #: arena compilations attributed to this run (grammar arenas
        #: plus widening step indexes — the delta of
        #: :func:`repro.typegraph.arena.snapshot`); 0 with the arena
        #: kernels configured off.
        self.arena_compiles = arena_compiles
        #: oversized disjunctions the normalizer compiled to auxiliary
        #: predicates instead of cartesian expansion
        #: (:attr:`repro.prolog.normalize.NormProgram.disjunction_fallbacks`)
        #: — a warning-worthy signal that the source had pathological
        #: disjunctive nesting, not a soundness concern.
        self.disjunction_fallbacks = disjunction_fallbacks


class Entry(Record):
    """One tabulated (input pattern, predicate, output pattern) tuple —
    the (β_in, p, β_out) triples of §2.  ``dependents`` holds caller
    *entry ids*; the differential engine additionally keeps
    per-call-site edges in ``Engine._callsite_deps`` and prunes both
    when a call site re-resolves elsewhere."""

    __slots__ = ("id", "pred", "beta_in", "beta_out", "dependents",
                 "updates", "iterations")

    def __init__(self, id: int, pred: PredId, beta_in: AbstractSubst,
                 beta_out: object = PAT_BOTTOM,
                 dependents: Optional[Set[int]] = None,
                 updates: int = 0, iterations: int = 0) -> None:
        self.id = id
        self.pred = pred
        self.beta_in = beta_in
        self.beta_out = beta_out
        self.dependents = set() if dependents is None else dependents
        self.updates = updates
        self.iterations = iterations


class _ClauseState:
    """Differential-mode memory of one (entry, clause) pair.

    ``out`` is the clause's last output (valid once ``ran``); ``dirty``
    is ``None`` when the cached output is provably current, ``-1`` when
    the clause must run from its head, else the smallest dirty
    call-site ordinal (resume point).  ``callees`` / ``snapshots`` /
    ``calls`` are parallel per-call-site records: the table entry the
    call resolved to, the builder snapshot taken just before the call
    (None where the clause memo replayed it), and the memo's
    :class:`_Call` node of the call site (None where nothing was
    recorded).  One of the last two is always there."""

    __slots__ = ("out", "ran", "dirty", "callees", "snapshots", "calls")

    FROM_HEAD = -1

    def __init__(self) -> None:
        self.out = PAT_BOTTOM
        self.ran = False
        self.dirty: Optional[int] = self.FROM_HEAD
        self.callees: List[Optional[int]] = []
        self.snapshots: List[Optional[List[object]]] = []
        self.calls: List[Optional[_Call]] = []

    def mark_dirty(self, callsite: int) -> None:
        if self.dirty is None or callsite < self.dirty:
            self.dirty = callsite


# -- the clause memo (see the module docstring) -------------------------------

#: Root table of the trie: ``(did, clause content, β_in)`` -> the
#: clause's first call node, or its leaf when no call site was reached.
#: A leaf is the clause output, or ``(clause output, unknown predicates
#: reached)`` when the clause calls an unknown one.  Substitutions key
#: the trie themselves: an interned one hashes and compares by
#: identity, any other by structure, and a key keeps its substitution
#: interned, so a later analysis that rebuilds an equal one finds it.
_CLAUSE_MEMO = opcache.cache_for("clause")


def _clause_content(clause: NormClause, program: NormProgram) -> str:
    """What a clause's execution depends on, as a string: its head
    arity, variables and goals, and whether each callee is defined in
    ``program`` (the one way the rest of the program enters a clause's
    execution, apart from callee outputs).  The repr of a tuple of
    ints, strings and bools names it exactly and holds none of the
    program's objects."""
    goals = []
    for goal in clause.body:
        if isinstance(goal, NUnify):
            goals.append((goal.a, goal.b))
        elif isinstance(goal, NBuild):
            goals.append((goal.v, goal.name, goal.is_int, goal.args))
        else:
            goals.append((goal.pred, goal.args,
                          program.defined(goal.pred)))
    return repr((clause.pred[1], clause.nvars, goals))


class _Call:
    """A call site in the clause memo: the β_call it issued and, per
    callee output seen there (bottom included), the node or leaf
    execution went on to.  The first child is held inline
    (``key``/``child``; ``child is None`` until one is recorded),
    further ones in the parallel tuples ``outs``/``kids``; half the
    call sites of the benchmark corpus see one output, and few more
    than four."""

    __slots__ = ("beta_call", "key", "child", "outs", "kids")

    def __init__(self, beta_call) -> None:
        self.beta_call = beta_call
        self.key = None
        self.child = None
        self.outs = self.kids = ()

    def lookup(self, out):
        if self.key is out:
            return self.child
        outs = self.outs
        return self.kids[outs.index(out)] if out in outs else None

    def attach(self, out, child) -> None:
        if self.child is None:
            self.key = out
            self.child = child
        else:
            self.outs += (out,)
            self.kids += (child,)

    def output_to(self, child):
        """The callee output that leads to ``child``."""
        if self.child is child:
            return self.key
        return self.outs[self.kids.index(child)]


class AnalysisResult:
    """Outcome of an analysis run: the full polyvariant table.

    Constructed by the engine (:meth:`from_engine`) or rebuilt from a
    serialized form (the service layer passes the parts directly, with
    ``program=None`` when only the table is of interest).
    """

    def __init__(self, program, domain,
                 stats: AnalysisStats, root_entry: Entry,
                 entries: List[Entry],
                 unknown_predicates: List[PredId]) -> None:
        self.program = program
        self.domain = domain
        self.stats = stats
        self.root_entry = root_entry
        self.entries = entries
        self.unknown_predicates = unknown_predicates
        self._by_pred: Dict[PredId, List[Entry]] = {}
        for entry in entries:
            self._by_pred.setdefault(entry.pred, []).append(entry)
        self._collapsed: Dict[PredId, Optional[Tuple[object, object]]] = {}
        #: provenance graph, retained only under
        #: ``AnalysisConfig(keep_deps=True)`` (see there); None
        #: otherwise.  ``callsite_deps`` maps callee entry id ->
        #: {(caller entry id, clause index, call-site ordinal)};
        #: ``clause_callees`` maps entry id -> per-clause callee entry
        #: ids, one per call site; ``clause_reached`` maps entry id ->
        #: per-clause "produced a non-bottom output" flags;
        #: ``call_positions`` maps (pred, clause index) -> body
        #: positions of the clause's call sites.
        self.callsite_deps: Optional[Dict[int, Set[Tuple[int, int,
                                                         int]]]] = None
        self.clause_callees: Optional[Dict[int,
                                           List[List[Optional[int]]]]] = None
        self.clause_reached: Optional[Dict[int, List[bool]]] = None
        self.call_positions: Optional[Dict[Tuple[PredId, int],
                                           List[int]]] = None

    @classmethod
    def from_engine(cls, engine: "Engine", root: Entry) -> "AnalysisResult":
        entries = sorted((e for es in engine.table.values() for e in es),
                         key=lambda e: e.id)
        result = cls(engine.program, engine.domain, engine.stats, root,
                     entries, sorted(engine.unknown_predicates))
        if engine.keep_deps:
            result.callsite_deps = {
                callee: set(edges)
                for callee, edges in engine._callsite_deps.items() if edges}
            result.clause_callees = {
                eid: [list(state.callees) for state in states]
                for eid, states in engine._clause_states.items()}
            result.clause_reached = {
                eid: [state.ran and state.out is not PAT_BOTTOM
                      for state in states]
                for eid, states in engine._clause_states.items()}
            # _call_positions fills lazily (resume paths only); force
            # it for every analyzed clause so the slicer can map any
            # call-site ordinal back to its body position.
            for eid in engine._clause_states:
                pred = engine.entries_by_id[eid].pred
                procedure = engine.program.procedure(pred)
                if procedure is not None:
                    for ci, clause in enumerate(procedure.clauses):
                        engine._callsites_of(pred, ci, clause)
            result.call_positions = dict(engine._call_positions)
        return result

    @property
    def output(self):
        """β_out of the queried predicate."""
        return self.root_entry.beta_out

    def tuples(self) -> List[Tuple[AbstractSubst, PredId, object]]:
        """All (β_in, p, β_out) tuples computed, root first."""
        return [(e.beta_in, e.pred, e.beta_out) for e in self.entries]

    def entries_for(self, pred: PredId) -> List[Entry]:
        return list(self._by_pred.get(pred, ()))

    def predicates(self) -> List[PredId]:
        """Analyzed predicates in first-entry order."""
        return list(self._by_pred)

    def collapsed_for(self, pred: PredId):
        """Single-version (β_in, β_out) for ``pred``: the join over all
        entries — the "no multiple specialization" view used by the
        accuracy tables (§9).  Memoized: tag extraction and grammar
        display ask for the same predicate repeatedly, and the table is
        immutable once built."""
        if pred in self._collapsed:
            return self._collapsed[pred]
        entries = self._by_pred.get(pred)
        if not entries:
            self._collapsed[pred] = None
            return None
        beta_in = PAT_BOTTOM
        beta_out = PAT_BOTTOM
        for entry in entries:
            beta_in = subst_join(beta_in, entry.beta_in, self.domain)
            beta_out = subst_join(beta_out, entry.beta_out, self.domain)
        self._collapsed[pred] = (beta_in, beta_out)
        return beta_in, beta_out


class Engine:
    """Analyzes one query against a normalized program."""

    def __init__(self, program: NormProgram,
                 domain: Optional[LeafDomain] = None,
                 config: Optional[AnalysisConfig] = None) -> None:
        self.program = program
        self.config = config if config is not None else AnalysisConfig()
        if domain is None:
            domain = TypeLeafDomain(self.config.max_or_width,
                                    self.config.type_database)
        self.domain = domain
        self.keep_deps: bool = bool(getattr(self.config, "keep_deps",
                                            False))
        self.differential: bool = self.config.differential
        if self.keep_deps:
            # No clause-granular bookkeeping means no edges to keep;
            # differential mode never changes the table, so forcing it
            # on is invisible to everything but the retained graph.
            self.differential = True
        if self.config.scheduler not in SCHEDULERS:
            raise ValueError("unknown scheduler: %r (expected one of %s)"
                             % (self.config.scheduler,
                                ", ".join(SCHEDULERS)))
        self.scheduler: str = self.config.scheduler
        self.table: Dict[PredId, List[Entry]] = {}
        # Memos of _solve's table scans, keyed by the (hash-indexed)
        # structural input pattern, so repeated call patterns — the
        # common case, every procedure iteration re-issues its calls —
        # resolve in O(1).  A hit returns exactly what the scan would.
        # An input answered by an entry with an equal input keeps its
        # answer for the whole run: entries are only appended and
        # their inputs never change, so the first equal one stays
        # first.  An input answered by a covering entry only is
        # dropped whenever the predicate's entry list grows.
        self._equal_memo: Dict[PredId, Dict[AbstractSubst, Entry]] = {}
        self._lookup_memo: Dict[PredId, Dict[AbstractSubst, Entry]] = {}
        self.general_entry: Dict[PredId, int] = {}
        self.input_widen_count: Dict[PredId, int] = {}
        self.entries_by_id: Dict[int, Entry] = {}
        #: LIFO stack of entry ids, or a heap of (scc, -seq, id)
        #: triples under the SCC scheduler.
        self.worklist: List = []
        self.queued: Set[int] = set()
        self._push_seq = 0
        self._scc_index: Optional[Dict[PredId, int]] = None
        if self.scheduler == "scc":
            # Local import: repro.analysis imports this module back.
            from ..analysis.callgraph import norm_scc_indices
            self._scc_index = norm_scc_indices(program)
        # -- differential state ------------------------------------------
        #: entry id -> one _ClauseState per clause of its procedure.
        self._clause_states: Dict[int, List[_ClauseState]] = {}
        #: callee entry id -> {(caller entry id, clause idx, call-site
        #: ordinal)} — the clause-granular dependency edges.
        self._callsite_deps: Dict[int, Set[Tuple[int, int, int]]] = {}
        #: (pred, clause idx) -> body positions of defined-pred calls.
        self._call_positions: Dict[Tuple[PredId, int], List[int]] = {}
        # -- the clause memo -----------------------------------------------
        #: The trie's root table, or None when the domain's did is per
        #: instance (nothing it records could be found again).
        self._memo: Optional[opcache.OpCache] = (
            _CLAUSE_MEMO if self.domain.shared_did else None)
        #: (pred, clause idx) -> :meth:`_clause_info`.
        self._clause_infos: Dict[Tuple[PredId, int], tuple] = {}
        self.stats = AnalysisStats(
            scheduler=self.scheduler,
            disjunction_fallbacks=getattr(program,
                                          "disjunction_fallbacks", 0))
        self.unknown_predicates: Set[PredId] = set()

    # -- public API -----------------------------------------------------------

    def analyze(self, pred: PredId,
                beta_in: Optional[AbstractSubst] = None) -> AnalysisResult:
        """Run the fixpoint for ``pred`` called with ``beta_in``
        (default: all arguments Any)."""
        start = time.process_time()
        cache_hits, cache_misses = opcache.snapshot()
        arena_compiles = arena.snapshot()
        if beta_in is None:
            beta_in = subst_top(pred[1], self.domain)
        if not self.program.defined(pred):
            raise KeyError("undefined predicate: %s/%d" % pred)
        root = self._solve(pred, beta_in)
        self._run()
        self.stats.cpu_time += time.process_time() - start
        new_hits, new_misses = opcache.snapshot()
        self.stats.opcache_hits += new_hits - cache_hits
        self.stats.opcache_misses += new_misses - cache_misses
        self.stats.arena_compiles += arena.snapshot() - arena_compiles
        return AnalysisResult.from_engine(self, root)

    def _append_entry(self, pred: PredId, entry: Entry) -> None:
        """Append to the predicate's entry list, invalidating its
        covering lookups (their scans may end earlier once the list
        grows)."""
        self.table.setdefault(pred, []).append(entry)
        self._lookup_memo.pop(pred, None)

    # -- table management ------------------------------------------------------

    def _solve(self, pred: PredId, beta_in: AbstractSubst) -> Entry:
        """Entry whose input covers ``beta_in``, creating/widening as
        needed.  The table scan below is memoized by structural input
        pattern (see ``_equal_memo`` and ``_lookup_memo``), so a hit is
        always exactly what the scan would return."""
        entries = self.table.setdefault(pred, [])
        equal = self._equal_memo.get(pred)
        if equal is None:
            equal = self._equal_memo[pred] = {}
        else:
            hit = equal.get(beta_in)
            if hit is not None:
                return hit
        memo = self._lookup_memo.get(pred)
        if memo is None:
            memo = self._lookup_memo[pred] = {}
        else:
            hit = memo.get(beta_in)
            if hit is not None:
                return hit
        # The first entry whose input equals beta_in, else the first
        # that covers it, in one pass (equal inputs cover each other).
        covering = None
        for entry in entries:
            if subst_le(beta_in, entry.beta_in, self.domain):
                if subst_eq(beta_in, entry.beta_in, self.domain):
                    equal[beta_in] = entry
                    return entry
                if covering is None:
                    covering = entry
        if covering is not None:
            memo[beta_in] = covering
            return covering
        if len(entries) >= self.config.max_input_patterns:
            # Call-pattern widening (§7.1 case 2): accumulate into one
            # *general* input per predicate, widening the join of all
            # inputs seen so far — this is what lets the accumulator
            # examples converge to S ::= 0 | c(Any,S) | d(Any,S).
            general_id = self.general_entry.get(pred)
            if general_id is None:
                old = entries[0].beta_in
                for entry in entries[1:]:
                    old = subst_join(old, entry.beta_in, self.domain)
            else:
                old = self.entries_by_id[general_id].beta_in
            count = self.input_widen_count.get(pred, 0)
            self.input_widen_count[pred] = count + 1
            strict = count >= self.config.strict_widening_after
            widened = subst_widen(
                old, subst_join(old, beta_in, self.domain), self.domain,
                strict)
            self.stats.input_widenings += 1
            if general_id is not None and subst_eq(
                    widened, self.entries_by_id[general_id].beta_in,
                    self.domain):
                return self.entries_by_id[general_id]
            beta_in = widened
            entry = Entry(len(self.entries_by_id), pred, beta_in)
            self.entries_by_id[entry.id] = entry
            self._append_entry(pred, entry)
            self.general_entry[pred] = entry.id
            self.stats.entries_created += 1
            self._schedule(entry)
            return entry
        entry = Entry(len(self.entries_by_id), pred, beta_in)
        self.entries_by_id[entry.id] = entry
        self._append_entry(pred, entry)
        equal[beta_in] = entry
        self.stats.entries_created += 1
        self._schedule(entry)
        return entry

    # -- scheduling -----------------------------------------------------------

    def _schedule(self, entry: Entry) -> None:
        if entry.id in self.queued:
            return
        self.queued.add(entry.id)
        if self._scc_index is None:
            self.worklist.append(entry.id)
        else:
            # Callee-most SCC first (Tarjan emits callees before
            # callers, so a smaller index is a deeper component); ties
            # pop most-recently-pushed first, preserving the LIFO
            # descent inside one component.
            self._push_seq += 1
            heappush(self.worklist,
                     (self._scc_index.get(entry.pred, len(self._scc_index)),
                      -self._push_seq, entry.id))

    def _pop(self) -> int:
        if self._scc_index is None:
            # LIFO: newly discovered callees are analyzed before their
            # callers are retried — the top-down descent order of GAIA,
            # which lets callee types mature before callers widen.
            return self.worklist.pop()
        return heappop(self.worklist)[2]

    def _run(self) -> None:
        budget = self.config.max_procedure_iterations
        while self.worklist:
            if self.stats.procedure_iterations >= budget:
                raise AnalysisBudgetExceeded(
                    "procedure iteration budget exceeded (%d)" % budget)
            entry_id = self._pop()
            self.queued.discard(entry_id)
            self._analyze_entry(self.entries_by_id[entry_id])

    # -- one procedure iteration -------------------------------------------------

    def _analyze_entry(self, entry: Entry) -> None:
        self.stats.procedure_iterations += 1
        entry.iterations += 1
        procedure = self.program.procedure(entry.pred)
        assert procedure is not None
        differential = self.differential
        states: Optional[List[_ClauseState]] = None
        if differential:
            states = self._clause_states.get(entry.id)
            if states is None:
                states = [_ClauseState() for _ in procedure.clauses]
                self._clause_states[entry.id] = states
        result = PAT_BOTTOM
        for ci, clause in enumerate(procedure.clauses):
            if differential:
                state = states[ci]
                if state.ran and state.dirty is None:
                    # No call site of this clause saw a callee update
                    # since it last ran; re-execution would reproduce
                    # the cached output exactly (abstract execution is
                    # a deterministic function of β_in and the callee
                    # outputs), so join the cache instead.
                    self.stats.clause_iterations_skipped += 1
                    clause_out = state.out
                else:
                    self.stats.clause_iterations += 1
                    clause_out = self._exec_clause(entry, clause, ci, state)
                    state.out = clause_out
                    state.ran = True
                    state.dirty = None
            else:
                self.stats.clause_iterations += 1
                clause_out = self._exec_clause(entry, clause, ci)
            result = subst_join(result, clause_out, self.domain)
        if result is PAT_BOTTOM:
            return  # nothing new
        if entry.beta_out is PAT_BOTTOM:
            new_out = result
        elif entry.updates < self.config.widening_delay:
            new_out = subst_join(entry.beta_out, result, self.domain)
        else:
            strict = entry.updates >= self.config.strict_widening_after
            new_out = subst_widen(entry.beta_out, result, self.domain,
                                  strict)
        if entry.beta_out is not PAT_BOTTOM and \
                subst_le(new_out, entry.beta_out, self.domain):
            return  # stable
        entry.beta_out = new_out
        entry.updates += 1
        if not differential:
            for dependent_id in entry.dependents:
                self._schedule(self.entries_by_id[dependent_id])
            return
        # Mark the exact (caller, clause, call site) triples that
        # consumed this entry's old output dirty, then schedule only
        # callers left with work: an entry whose clauses are all clean
        # would join its caches and change nothing, so skipping it is a
        # pure procedure-iteration saving (this is also what stops a
        # stale self-edge from rescheduling the entry it points to).
        for caller_id, ci, cs in self._callsite_deps.get(entry.id, ()):
            caller_states = self._clause_states.get(caller_id)
            if caller_states is not None:
                caller_states[ci].mark_dirty(cs)
        for dependent_id in entry.dependents:
            dep_states = self._clause_states.get(dependent_id)
            if dep_states is None or any(
                    state.dirty is not None for state in dep_states):
                self._schedule(self.entries_by_id[dependent_id])

    # -- abstract clause execution --------------------------------------------------

    def _callsites_of(self, pred: PredId, ci: int,
                      clause: NormClause) -> List[int]:
        """Body positions of this clause's defined-predicate calls
        (the call sites), cached per (pred, clause index)."""
        key = (pred, ci)
        positions = self._call_positions.get(key)
        if positions is None:
            positions = [pos for pos, goal in enumerate(clause.body)
                         if isinstance(goal, NCall)
                         and self.program.defined(goal.pred)]
            self._call_positions[key] = positions
        return positions

    def _clause_info(self, pred: PredId, ci: int,
                     clause: NormClause) -> tuple:
        """``(content, unknown calls)`` of a clause, per engine: its
        :func:`_clause_content` and the ``(position, pred)`` of each call
        of neither a defined predicate nor a built-in."""
        key = (pred, ci)
        info = self._clause_infos.get(key)
        if info is None:
            defined = self.program.defined
            info = self._clause_infos[key] = (
                _clause_content(clause, self.program),
                tuple([(pos, goal.pred)
                       for pos, goal in enumerate(clause.body)
                       if isinstance(goal, NCall)
                       and not defined(goal.pred)
                       and goal.pred not in BUILTINS]))
        return info

    def _exec_clause(self, entry: Entry, clause: NormClause, ci: int,
                     state: Optional[_ClauseState] = None):
        """Abstract execution of one clause against ``entry.beta_in``.

        With differential ``state``, execution resumes at the first
        dirty call site (the prefix re-runs nothing); otherwise — first
        run or head-dirty — it starts from the clause head.  A recorded
        walk (a clause memo root, or the resume point's :class:`_Call`)
        is replayed; anything else executes on a builder, recording
        into the memo when the engine has one.
        """
        if state is not None and state.ran:
            k = state.dirty
            if k is not None and 0 <= k < len(state.callees):
                self.stats.callsite_resumptions += 1
                call = state.calls[k]
                if call is not None:
                    return self._replay(entry, clause, ci, state, call, k)
                builder, nodes = make_builder(self.domain).fork(
                    state.snapshots[k])
                start = self._callsites_of(entry.pred, ci, clause)[k]
                return self._run_body(entry, clause, ci, state, builder,
                                      nodes, start, k, k, None)
        memo = self._memo
        slot = None
        if memo is not None:
            root = (self.domain.did,
                    self._clause_info(entry.pred, ci, clause)[0],
                    entry.beta_in)
            recorded = memo.peek(root)
            if recorded is not None:
                return self._replay(entry, clause, ci, state, recorded, -1)
            memo.misses += 1
            slot = (None, root)
        builder, nodes = self._at_head(entry, clause)
        return self._run_body(entry, clause, ci, state, builder, nodes,
                              0, 0, -1, slot)

    def _at_head(self, entry: Entry, clause: NormClause):
        """A builder holding ``entry.beta_in`` and a fresh leaf per
        clause-local variable, with the node of every variable."""
        builder = make_builder(self.domain)
        nodes = builder.instantiate(entry.beta_in)
        for _ in range(clause.pred[1], clause.nvars):
            nodes.append(builder.fresh_leaf())
        return builder, nodes

    def _replay(self, entry: Entry, clause: NormClause, ci: int,
                state: Optional[_ClauseState], node, resumed_at: int):
        """Walk the clause memo from ``node`` — a root's record, or the
        call node of call site ``resumed_at`` — issuing each call
        site's side effects as execution would, and return the leaf's
        output.  A callee output the trie has not seen leaves it
        (:meth:`_diverge`)."""
        positions = self._callsites_of(entry.pred, ci, clause)
        body = clause.body
        cs = resumed_at if resumed_at >= 0 else 0
        # The path's call nodes from the first call site: the
        # differential state's ``calls``, else collected here.
        trail = state.calls if state is not None else []
        while node.__class__ is _Call:
            if state is None:
                trail.append(node)
            elif cs != resumed_at:
                self._put_callsite(state, cs, None, node)
            beta_call = node.beta_call
            if beta_call is PAT_BOTTOM:
                out = PAT_BOTTOM
            else:
                out = self._enter_call(entry, body[positions[cs]].pred,
                                       beta_call, ci, cs, state)
            cs += 1
            child = node.lookup(out)
            if child is None:
                self._memo.misses += 1
                return self._diverge(entry, clause, ci, state, node, trail,
                                     cs, out)
            node = child
        self._memo.hits += 1
        if node.__class__ is tuple:
            node, unknowns = node
            self.unknown_predicates.update(unknowns)
        return self._finish_clause(entry, ci, state, cs, node)

    def _diverge(self, entry: Entry, clause: NormClause, ci: int,
                 state: Optional[_ClauseState], node: _Call,
                 trail: list, cs: int, out):
        """Execute past the recorded trie: call site ``cs - 1``
        (``node``, the last of ``trail``) read the callee output
        ``out``, which nothing recorded follows.  Take the builder just
        before that call from its snapshot when execution took one,
        else rebuild it by re-running the clause prefix with the callee
        outputs recorded on the path (no ``_solve``, no side effect
        again); then apply ``out`` and execute the rest, recording it
        under ``node``."""
        site = cs - 1
        pos = self._callsites_of(entry.pred, ci, clause)[site]
        if out is PAT_BOTTOM:
            return self._end_clause(entry, clause, ci, state, cs, pos,
                                    (node, PAT_BOTTOM), PAT_BOTTOM)
        body = clause.body
        snap = state.snapshots[site] if state is not None else None
        if snap is not None:
            builder, nodes = make_builder(self.domain).fork(snap)
        else:
            builder, nodes = self._at_head(entry, clause)
            defined = self.program.defined
            prior = 0
            # The recorded path went past every goal of the prefix, so
            # each succeeds again.
            for goal in body[:pos]:
                if isinstance(goal, NUnify):
                    builder.unify(nodes[goal.a], nodes[goal.b])
                elif isinstance(goal, NBuild):
                    builder.unify(nodes[goal.v], builder.make_pattern(
                        goal.name, goal.is_int,
                        [nodes[a] for a in goal.args]))
                elif defined(goal.pred):
                    self._apply_out(builder, [nodes[a] for a in goal.args],
                                    trail[prior].output_to(trail[prior + 1]))
                    prior += 1
                else:
                    self._exec_builtin(builder, nodes, goal)
        slot = (node, out)
        if not self._apply_out(builder, [nodes[a] for a in body[pos].args],
                               out):
            return self._end_clause(entry, clause, ci, state, cs, pos, slot,
                                    PAT_BOTTOM)
        return self._run_body(entry, clause, ci, state, builder, nodes,
                              pos + 1, cs, -1, slot)

    def _run_body(self, entry: Entry, clause: NormClause, ci: int,
                  state: Optional[_ClauseState], builder, nodes: List,
                  start: int, cs: int, resumed_at: int, slot):
        """Execute ``clause.body[start:]`` on ``builder``, ``cs`` being
        the ordinal of the next call site.  A differential run
        snapshots the builder before each call site but ``resumed_at``
        (whose snapshot is this very state).  With a memo ``slot`` the
        run is recorded: each call site becomes a :class:`_Call` node,
        the end a leaf (see :meth:`_record`)."""
        body = clause.body
        defined = self.program.defined
        for pos in range(start, len(body)):
            goal = body[pos]
            if isinstance(goal, NUnify):
                if not builder.unify(nodes[goal.a], nodes[goal.b]):
                    return self._end_clause(entry, clause, ci, state, cs,
                                            pos, slot, PAT_BOTTOM)
            elif isinstance(goal, NBuild):
                pattern = builder.make_pattern(
                    goal.name, goal.is_int, [nodes[a] for a in goal.args])
                if not builder.unify(nodes[goal.v], pattern):
                    return self._end_clause(entry, clause, ci, state, cs,
                                            pos, slot, PAT_BOTTOM)
            elif defined(goal.pred):
                snapshot = state is not None and cs != resumed_at
                if snapshot:
                    # Snapshot the builder before the call so a later
                    # update of this call site's callee can resume
                    # right here.
                    _, snap = builder.fork(nodes)
                args = [nodes[a] for a in goal.args]
                beta_call = builder.freeze(args)
                call = None
                if slot is not None:
                    call = _Call(beta_call)
                    self._record(slot, call)
                    slot = (call, PAT_BOTTOM)
                if snapshot:
                    self._put_callsite(state, cs, snap, call)
                cs += 1
                if beta_call is PAT_BOTTOM:
                    return self._end_clause(entry, clause, ci, state, cs,
                                            pos, slot, PAT_BOTTOM)
                out = self._enter_call(entry, goal.pred, beta_call, ci,
                                       cs - 1, state)
                if out is PAT_BOTTOM:  # no success known (yet)
                    return self._end_clause(entry, clause, ci, state, cs,
                                            pos, slot, PAT_BOTTOM)
                if slot is not None:
                    slot = (call, out)
                if not self._apply_out(builder, args, out):
                    return self._end_clause(entry, clause, ci, state, cs,
                                            pos, slot, PAT_BOTTOM)
            elif not self._exec_builtin(builder, nodes, goal):
                return self._end_clause(entry, clause, ci, state, cs, pos,
                                        slot, PAT_BOTTOM)
        return self._end_clause(entry, clause, ci, state, cs, len(body),
                                slot, builder.freeze(nodes[:clause.pred[1]]))

    def _record(self, slot, value) -> None:
        """Store ``value`` at ``slot``: ``(None, root key)`` for a root
        of the memo, else ``(call node, callee output)``, the output
        (or bottom) the node's call read."""
        parent, key = slot
        if parent is None:
            self._memo.put(key, value)
        else:
            parent.attach(key, value)

    def _end_clause(self, entry: Entry, clause: NormClause, ci: int,
                    state: Optional[_ClauseState], cs: int, pos: int, slot,
                    clause_out):
        """End a run that stopped at goal ``pos`` (or ran the whole
        body): record its leaf under ``slot``, then finish."""
        if slot is not None:
            unknowns = [pred for at, pred
                        in self._clause_info(entry.pred, ci, clause)[1]
                        if at < pos]
            self._record(slot, (clause_out, tuple(unknowns)) if unknowns
                         else clause_out)
        return self._finish_clause(entry, ci, state, cs, clause_out)

    def _finish_clause(self, entry: Entry, ci: Optional[int],
                       state: Optional[_ClauseState], reach: int,
                       clause_out):
        """Truncate per-call-site records past what this run reached —
        their snapshots would no longer reproduce full re-execution —
        and unsubscribe the dropped call sites from their callees."""
        if state is not None and len(state.callees) > reach:
            for cs in range(reach, len(state.callees)):
                old = state.callees[cs]
                if old is not None:
                    self._drop_callsite_dep(entry, old, ci, cs)
            del state.callees[reach:]
            del state.snapshots[reach:]
            del state.calls[reach:]
        return clause_out

    def _put_callsite(self, state: _ClauseState, cs: int,
                      snapshot: Optional[List[object]],
                      call: Optional[_Call]) -> None:
        if cs < len(state.callees):
            state.snapshots[cs] = snapshot
            state.calls[cs] = call
        else:
            state.snapshots.append(snapshot)
            state.calls.append(call)
            state.callees.append(None)

    def _drop_callsite_dep(self, entry: Entry, old_callee_id: int,
                           ci: int, cs: int) -> None:
        """Remove the (entry, ci, cs) edge from ``old_callee_id``; when
        that was the entry's last call site into the old callee, prune
        the entry-level dependent edge too, so superseded entries stop
        rescheduling callers that no longer read them."""
        deps = self._callsite_deps.get(old_callee_id)
        if deps is None:
            return
        deps.discard((entry.id, ci, cs))
        if not any(caller == entry.id for caller, _, _ in deps):
            old_entry = self.entries_by_id.get(old_callee_id)
            if old_entry is not None:
                old_entry.dependents.discard(entry.id)

    def _bind_callsite(self, entry: Entry, ci: int, cs: int,
                       state: _ClauseState, callee: Entry) -> None:
        old = state.callees[cs]
        if old is not None and old != callee.id:
            # Input-pattern widening (or an earlier callee's growth)
            # re-resolved this call site: unsubscribe from the entry it
            # used to read, so its future updates no longer dirty us.
            self._drop_callsite_dep(entry, old, ci, cs)
        state.callees[cs] = callee.id
        self._callsite_deps.setdefault(callee.id, set()).add(
            (entry.id, ci, cs))

    def _enter_call(self, entry: Entry, pred: PredId, beta_call, ci: int,
                    cs: int, state: Optional[_ClauseState]):
        """Resolve a call to its table entry, record the dependency
        edges, and return the callee's current output."""
        callee = self._solve(pred, beta_call)
        if state is not None:
            self._bind_callsite(entry, ci, cs, state, callee)
        callee.dependents.add(entry.id)
        return callee.beta_out

    @staticmethod
    def _apply_out(builder, args: List, out) -> bool:
        """Unify a call's argument nodes with the callee output."""
        out_nodes = builder.instantiate(out)
        for caller_node, out_node in zip(args, out_nodes):
            if not builder.unify(caller_node, out_node):
                return False
        return True

    def _exec_builtin(self, builder, nodes: List, goal: NCall) -> bool:
        """A call of an undefined predicate: a built-in's type
        constraints, or the identity (sound) for an unknown one."""
        spec = BUILTINS.get(goal.pred)
        if spec is None:
            self.unknown_predicates.add(goal.pred)
            return True
        if spec.fails:
            return False
        for a, tag in zip(goal.args, spec.tags):
            if tag != "any":
                if not builder.constrain(nodes[a],
                                         tag_value(self.domain, tag)):
                    return False
        return True
