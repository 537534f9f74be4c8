"""Prolog front end: terms, tokenizer, parser, programs, normalization,
and a reference SLD interpreter used as the concrete-semantics oracle."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "terms": ("Atom", "Int", "Struct", "Term", "Var", "NIL", "CONS",
              "make_list", "list_elements", "is_list_term", "functor_of",
              "format_term", "term_variables"),
    "reader": ("Token", "TokenizeError", "tokenize"),
    "operators": ("OperatorTable", "default_operators"),
    "parser": ("ParseError", "parse_term", "parse_clauses"),
    "program": ("Clause", "PredId", "Procedure", "Program",
                "parse_program"),
    "normalize": ("NBuild", "NCall", "NGoal", "NUnify", "NormClause",
                  "NormProcedure", "NormProgram", "normalize_clause",
                  "normalize_program"),
    "interpreter": ("Bindings", "SolveLimits", "Solver", "solve"),
})
