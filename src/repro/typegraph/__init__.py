"""The type graph domain (paper §6–§7): grammars, graphs, operations,
the widening operator, and alternative views (tree automata, monadic
logic programs).

=====================  ==================================================
module                 contents
=====================  ==================================================
``grammar``            ``Grammar``, interning, normalization, constructors
``ops``                inclusion, union, intersection, split
``widening``           ``g_widen`` and its memo; dispatches to a tier
``arena``              kernel tiers, symbol table, flat-int arenas
``_native``            the native tier: the C kernels, widening included
``_python``            the python tier's arena kernels
``widenloop``          the widening's Python transformation loop
``graph``              the tree + back-edge view the loop works on
``reference``          Grammar-level references of the operations
``opcache``            the bounded operation memo tables
``display``/``views``  text, tree-automaton and monadic-program views
``depthbound``         the depth-k finite subdomain (ablation)
=====================  ==================================================

The hot kernels run on the flat-int arena (:mod:`repro.typegraph.arena`)
unless ``arena.configure(enabled=False)`` routes them back through the
reference paths.  A native-tier analysis imports only ``grammar``,
``ops``, ``widening``, ``arena``, ``_native`` and ``opcache``; the
python tier, the widening loop, the graph view and the references load
when something first asks for them.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "grammar": ("ANY", "INT", "Alt", "FuncAlt", "Grammar",
                "GrammarBuilder", "g_alternatives", "g_any", "g_atom",
                "g_bottom", "g_functor", "g_int", "g_int_literal",
                "intern_grammar", "member", "normalize", "subgrammar"),
    "reference": ("normalize_reference",),
    "arena": ("arena",),
    "opcache": ("opcache",),
    "ops": ("g_equiv", "g_intersect", "g_is_list", "g_le", "g_list_of",
            "g_split", "g_union"),
    "widening": ("g_widen",),
    "widenloop": ("widening_clashes",),
    "graph": ("TypeGraph", "Vertex", "to_grammar", "treeify"),
    "display": ("grammar_rules", "grammar_to_text", "parse_rules"),
    "views": ("TreeAutomaton", "monadic_text", "to_automaton",
              "to_monadic_program"),
    "depthbound": ("depth_bound_join", "restrict_depth"),
})
