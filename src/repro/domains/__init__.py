"""Abstract domains: the generic pattern domain Pat(R) and its leaf
domains (Type and the principal-functor baseline)."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "leaf": ("DepthBoundLeafDomain", "LeafDomain", "TOP",
             "TrivialLeafDomain", "TypeLeafDomain"),
    "pattern": ("AbstractSubst", "PAT_BOTTOM", "PatBottom", "PatNode",
                "display_subst", "subst_eq", "subst_join", "subst_le",
                "subst_top", "subst_widen", "value_of"),
    "pybuilder": ("SubstBuilder",),
})
