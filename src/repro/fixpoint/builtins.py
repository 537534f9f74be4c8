"""Abstract semantics of builtin predicates.

Soundness argument: Prolog predicates only *instantiate* their
arguments, and type-graph denotations are instantiation-closed, so the
identity transfer function is always sound.  A builtin spec therefore
only *adds* constraints: a tag per argument naming a type that
over-approximates every possible value of that argument on success
(e.g. the first argument of ``is/2`` is an integer).  Tags refine
``Pat(Type)``; the trivial leaf domain ignores them (its ``meet`` is
the identity), mirroring the baseline's weaker builtin knowledge.

``fails=True`` marks builtins with no success at all (``fail/0``).
Unknown predicates are reported by the engine and treated as identity.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .._record import FrozenRecord
from ..domains.leaf import LeafDomain, TypeLeafDomain
from ..prolog.program import PredId
from ..typegraph.grammar import Grammar, g_any, g_atom, g_int
from ..typegraph.ops import g_list_of, g_union

__all__ = ["BuiltinSpec", "BUILTINS", "is_builtin", "tag_value"]


class BuiltinSpec(FrozenRecord):
    """Abstract behaviour of one builtin.

    ``tags`` gives a constraint tag per argument; ``any`` is the
    identity.  Builtins absent from the table behave like
    ``BuiltinSpec(("any", ...))``.
    """

    __slots__ = ("tags", "fails")

    def __init__(self, tags: Tuple[str, ...], fails: bool = False) -> None:
        self.tags = tags
        self.fails = fails


def _t(*tags: str, fails: bool = False) -> BuiltinSpec:
    return BuiltinSpec(tuple(tags), fails)


BUILTINS: Dict[PredId, BuiltinSpec] = {
    ("true", 0): _t(),
    ("!", 0): _t(),
    ("fail", 0): _t(fails=True),
    ("false", 0): _t(fails=True),
    ("halt", 0): _t(fails=True),  # no success state flows on
    ("nl", 0): _t(),
    ("seen", 0): _t(),
    ("told", 0): _t(),
    ("listing", 0): _t(),
    ("write", 1): _t("any"),
    ("print", 1): _t("any"),
    ("display", 1): _t("any"),
    ("write_canonical", 1): _t("any"),
    ("writeq", 1): _t("any"),
    ("see", 1): _t("any"),
    ("tell", 1): _t("any"),
    ("listing", 1): _t("any"),
    ("read", 1): _t("any"),
    ("get0", 1): _t("int"),
    ("get", 1): _t("int"),
    ("put", 1): _t("int"),
    ("tab", 1): _t("int"),
    ("var", 1): _t("any"),
    ("nonvar", 1): _t("any"),
    ("atom", 1): _t("any"),       # "all atoms" is not finitely presentable
    ("atomic", 1): _t("any"),
    ("number", 1): _t("int"),
    ("integer", 1): _t("int"),
    ("is", 2): _t("int", "any"),
    ("<", 2): _t("any", "any"),
    (">", 2): _t("any", "any"),
    ("=<", 2): _t("any", "any"),
    (">=", 2): _t("any", "any"),
    ("=:=", 2): _t("any", "any"),
    ("=\\=", 2): _t("any", "any"),
    ("==", 2): _t("any", "any"),
    ("\\==", 2): _t("any", "any"),
    ("@<", 2): _t("any", "any"),
    ("@>", 2): _t("any", "any"),
    ("@=<", 2): _t("any", "any"),
    ("@>=", 2): _t("any", "any"),
    ("\\=", 2): _t("any", "any"),
    ("\\+", 1): _t("any"),
    ("not", 1): _t("any"),
    ("call", 1): _t("any"),
    ("compare", 3): _t("ordering", "any", "any"),
    ("functor", 3): _t("any", "any", "int"),
    ("arg", 3): _t("int", "any", "any"),
    ("=..", 2): _t("any", "list"),
    ("name", 2): _t("any", "codes"),
    ("atom_codes", 2): _t("any", "codes"),
    ("number_codes", 2): _t("int", "codes"),
    ("atom_chars", 2): _t("any", "list"),
    # chars are one-character atoms, so "list" (of any) is the tightest
    # finitely presentable tag, mirroring atom_chars/2.
    ("number_chars", 2): _t("int", "list"),
    ("atom_length", 2): _t("any", "int"),
    ("char_code", 2): _t("any", "int"),
    ("succ", 2): _t("int", "int"),
    # sort/2 and friends succeed only on proper lists, with a list out.
    ("sort", 2): _t("list", "list"),
    ("msort", 2): _t("list", "list"),
    # keysort's pairs K-V are not finitely presentable beyond "list".
    ("keysort", 2): _t("list", "list"),
    ("length", 2): _t("list", "int"),
    ("between", 3): _t("int", "int", "int"),
    ("succ_or_zero", 1): _t("int"),
    ("assert", 1): _t("any"),
    ("asserta", 1): _t("any"),
    ("assertz", 1): _t("any"),
    ("retract", 1): _t("any"),
    ("abolish", 2): _t("any", "int"),
    ("ground", 1): _t("any"),
    ("copy_term", 2): _t("any", "any"),
    ("bagof", 3): _t("any", "any", "list"),
    ("setof", 3): _t("any", "any", "list"),
    ("findall", 3): _t("any", "any", "list"),
}


def is_builtin(pred: PredId) -> bool:
    return pred in BUILTINS


_TAG_CACHE: Dict[Tuple[int, str], Grammar] = {}


def tag_value(domain: LeafDomain, tag: str):
    """The leaf-domain value a tag constrains an argument with."""
    if not isinstance(domain, TypeLeafDomain) or tag == "any":
        return domain.top()
    key = (id(domain), tag)
    if key not in _TAG_CACHE:
        if tag == "int":
            value = g_int()
        elif tag == "list":
            value = g_list_of(g_any())
        elif tag == "codes":
            value = g_list_of(g_int())
        elif tag == "ordering":
            value = g_union(g_union(g_atom("<"), g_atom("=")), g_atom(">"))
        else:
            raise ValueError("unknown builtin tag: %s" % tag)
        _TAG_CACHE[key] = value
    return _TAG_CACHE[key]
