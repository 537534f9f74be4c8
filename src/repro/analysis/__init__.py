"""Analysis layer: high-level API, program metrics, tag extraction and
report formatting."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "analyzer": ("TypeAnalysis", "analyze", "make_input_pattern"),
    "callgraph": ("CallGraph", "ProgramMetrics", "RecursionClass",
                  "build_callgraph", "classify_procedures",
                  "norm_scc_indices", "program_metrics",
                  "recursion_summary"),
    "report": ("format_table", "format_tag_row"),
    "tags": ("TAGS", "TagComparison", "compare_tags", "tag_of_grammar",
             "tags_of_subst"),
})
