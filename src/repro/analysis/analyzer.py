"""High-level analysis API.

Typical use::

    from repro import analyze
    analysis = analyze(source, ("nreverse", 2))
    print(analysis.grammar_text())          # paper-style rules
    analysis.output_tags()                  # {pred: [tag, ...]}

``analyze`` runs ``GAIA(Pat(Type))``; pass ``baseline=True`` for the
principal-functor comparison analysis of §9.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..domains.leaf import LeafDomain, TrivialLeafDomain, TypeLeafDomain
from ..domains.pattern import (AbstractSubst, PAT_BOTTOM, display_subst,
                               make_builder, value_of)
from ..fixpoint.engine import AnalysisConfig, AnalysisResult, Engine
from ..prolog.normalize import NormProgram, normalize_program
from ..prolog.program import PredId, Program, parse_program
from ..typegraph.grammar import Grammar, g_any, g_int
from ..typegraph.ops import g_list_of

__all__ = ["TypeAnalysis", "analyze", "make_input_pattern"]

_INPUT_TYPE_NAMES = {
    "any": g_any,
    "list": lambda: g_list_of(g_any()),
    "int": g_int,
    "codes": lambda: g_list_of(g_int()),
}


def make_input_pattern(domain: LeafDomain,
                       arg_types: Sequence[Union[str, Grammar]]
                       ) -> AbstractSubst:
    """An input pattern from per-argument types.  Strings name common
    types (``any``, ``list``, ``int``, ``codes``); grammars are used
    directly (ignored by the baseline domain, which has no leaf info)."""
    builder = make_builder(domain)
    nodes = []
    for spec in arg_types:
        if isinstance(spec, str):
            if spec not in _INPUT_TYPE_NAMES:
                raise ValueError(
                    "unknown input type %r (expected one of %s)"
                    % (spec, ", ".join(sorted(_INPUT_TYPE_NAMES))))
            grammar = _INPUT_TYPE_NAMES[spec]()
        else:
            grammar = spec
        if isinstance(domain, TypeLeafDomain):
            nodes.append(builder.fresh_leaf(grammar))
        else:
            nodes.append(builder.fresh_leaf())
    return builder.freeze(nodes)


@dataclass
class TypeAnalysis:
    """Everything the analysis produced, with convenience accessors."""

    program: Program
    norm: NormProgram
    query: PredId
    domain: LeafDomain
    result: AnalysisResult
    wall_time: float

    @property
    def output(self):
        return self.result.output

    @property
    def stats(self):
        return self.result.stats

    def output_grammar(self, arg: int,
                       pred: Optional[PredId] = None) -> Grammar:
        """Type grammar of one argument of the (collapsed) output
        pattern; defaults to the queried predicate."""
        if pred is None:
            subst = self.result.output
        else:
            collapsed = self.result.collapsed_for(pred)
            if collapsed is None:
                return g_any()
            subst = collapsed[1]
        if subst is PAT_BOTTOM:
            from ..typegraph.grammar import g_bottom
            return g_bottom()
        if not isinstance(self.domain, TypeLeafDomain):
            raise TypeError("grammars only exist for the Type domain")
        return value_of(subst, subst.sv[arg], self.domain, {})

    def grammar_text(self, pred: Optional[PredId] = None) -> str:
        """Paper-style display of the output pattern, one grammar per
        argument."""
        target = pred if pred is not None else self.query
        if pred is None:
            subst = self.result.output
        else:
            collapsed = self.result.collapsed_for(pred)
            subst = collapsed[1] if collapsed else PAT_BOTTOM
        lines = ["%s/%d:" % target]
        if subst is PAT_BOTTOM:
            lines.append("  <no success>")
            return "\n".join(lines)
        text = display_subst(subst, self.domain,
                             ["arg%d" % (i + 1)
                              for i in range(subst.nvars)])
        lines.extend("  " + line for line in text.splitlines())
        return "\n".join(lines)

    def analyzed_predicates(self) -> List[PredId]:
        seen: List[PredId] = []
        for entry in self.result.entries:
            if entry.pred not in seen:
                seen.append(entry.pred)
        return seen

    def _tags(self, which: str) -> Dict[PredId, List[Optional[str]]]:
        from .tags import tags_of_subst
        tags: Dict[PredId, List[Optional[str]]] = {}
        for pred in self.analyzed_predicates():
            collapsed = self.result.collapsed_for(pred)
            if collapsed is None:
                continue
            beta = collapsed[0] if which == "in" else collapsed[1]
            if beta is PAT_BOTTOM:
                continue
            tags[pred] = tags_of_subst(beta, self.domain)
        return tags

    def input_tags(self) -> Dict[PredId, List[Optional[str]]]:
        """Per-predicate input tags (Table 5)."""
        return self._tags("in")

    def output_tags(self) -> Dict[PredId, List[Optional[str]]]:
        """Per-predicate output tags (Table 4)."""
        return self._tags("out")

    def clauses_per_pred(self) -> Dict[PredId, int]:
        return {pred: len(proc.clauses)
                for pred, proc in self.program.procedures.items()}


def analyze(source: Union[str, Program], query: PredId,
            input_types: Optional[Sequence[Union[str, Grammar]]] = None,
            config: Optional[AnalysisConfig] = None,
            baseline: bool = False,
            domain: Optional[LeafDomain] = None) -> TypeAnalysis:
    """Parse (if needed), normalize, and analyze ``source`` for
    ``query``.

    ``input_types``: per-argument input types (default all ``Any``,
    the paper's ``p(Any, ..., Any)`` patterns; the L-prefixed runs of
    §9 pass ``"list"`` for the relevant arguments).
    ``baseline=True`` switches to the principal-functor domain.
    """
    program = parse_program(source) if isinstance(source, str) else source
    norm = normalize_program(program)
    if config is None:
        config = AnalysisConfig()
    if domain is None:
        if baseline:
            domain = TrivialLeafDomain()
        else:
            domain = TypeLeafDomain(config.max_or_width,
                                    config.type_database)
    engine = Engine(norm, domain, config)
    beta_in = None
    if input_types is not None:
        if len(input_types) != query[1]:
            raise ValueError("input_types must match the query arity")
        beta_in = make_input_pattern(domain, input_types)
    start = time.perf_counter()
    result = engine.analyze(query, beta_in)
    wall = time.perf_counter() - start
    return TypeAnalysis(program, norm, query, domain, result, wall)
