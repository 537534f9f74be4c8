"""The type graph domain (paper §6–§7): grammars, graphs, operations,
the widening operator, and alternative views (tree automata, monadic
logic programs).  The hot kernels run on the flat-int arena
(:mod:`repro.typegraph.arena`) unless ``arena.configure(enabled=False)``
routes them back through the reference paths."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "grammar": ("ANY", "INT", "Alt", "FuncAlt", "Grammar",
                "GrammarBuilder", "g_alternatives", "g_any", "g_atom",
                "g_bottom", "g_functor", "g_int", "g_int_literal",
                "intern_grammar", "member", "normalize",
                "normalize_reference", "subgrammar"),
    "arena": ("arena",),
    "opcache": ("opcache",),
    "ops": ("g_equiv", "g_intersect", "g_is_list", "g_le", "g_list_of",
            "g_split", "g_union"),
    "widening": ("g_widen", "widening_clashes"),
    "graph": ("TypeGraph", "Vertex", "to_grammar", "treeify"),
    "display": ("grammar_rules", "grammar_to_text", "parse_rules"),
    "views": ("TreeAutomaton", "monadic_text", "to_automaton",
              "to_monadic_program"),
    "depthbound": ("depth_bound_join", "restrict_depth"),
})
