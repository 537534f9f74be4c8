"""repro — Type Analysis of Prolog Using Type Graphs.

A complete reproduction of Van Hentenryck, Cortesi & Le Charlier's
PLDI'94 system ``GAIA(Pat(Type))``:

* :mod:`repro.prolog` — Prolog front end (tokenizer, parser,
  normalizer) and a reference SLD interpreter;
* :mod:`repro.typegraph` — the type graph domain: deterministic
  regular tree grammars, the graph view, inclusion / union /
  intersection, and the paper's widening operator;
* :mod:`repro.domains` — the generic pattern domain ``Pat(R)`` with
  the Type leaf domain and the principal-functor baseline;
* :mod:`repro.fixpoint` — the polyvariant worklist engine and
  abstract builtins;
* :mod:`repro.analysis` — the high-level API, Table 1–5 metrics, and
  tag extraction;
* :mod:`repro.benchprogs` — the benchmark suite of §9;
* :mod:`repro.service` — the serving layer: canonical serialization,
  a content-addressed result cache, a batch/parallel driver, and the
  ``repro serve`` / ``repro router`` daemons.

Quickstart::

    from repro import analyze
    analysis = analyze('''
        app([], X, X).
        app([F|T], S, [F|R]) :- app(T, S, R).
    ''', ("app", 3))
    print(analysis.grammar_text())
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__ = lazy_exports(__name__, {
    "analysis.analyzer": ("TypeAnalysis", "analyze", "make_input_pattern"),
    "fixpoint.engine": ("AnalysisConfig",),
    "prolog.program": ("Program", "parse_program"),
    "prolog.parser": ("parse_term",),
    "typegraph.grammar": ("Grammar",),
    "typegraph.display": ("grammar_to_text", "parse_rules"),
})
__all__.append("__version__")
