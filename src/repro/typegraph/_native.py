"""Native execution tier: a lazily-compiled C extension.

The kernels in ``_arenakernels.c`` are compiled on first use with the
system C compiler (``cc`` or ``$REPRO_KERNEL_CC``) into a cache
directory, one file per source and compile command, so the repo needs
no build step and no toolchain: when compilation is impossible the
loader reports a reason and the tier machinery in
:mod:`repro.typegraph.arena` falls back to the python tier and
records the reason in ``arena.kernel_status()``.  The C module holds
only integers — every Grammar/AbstractSubst it returns is looked up by
its canonical key in the same intern tables as the python tier, and a
miss is born as a handle through ``grammar.grammar_of_key`` /
``pattern.subst_of_key`` (its Python form decoded only on first use),
so results are *identical objects* across tiers and the
opcache/serialize layers stay tier-oblivious.

This module is the object published as ``arena.NATIVE``; the functions
below are the dispatch surface the python-level call sites use.  The
python tier's module, :mod:`repro.typegraph._python`, offers the same
arena-op surface; a process on this tier never imports it, nor the
Python widening loop (:mod:`repro.typegraph.widenloop`) or the Python
substitution builder (:mod:`repro.domains.pybuilder`), since the C
module serves the widening and the Pat(Type) walks itself.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
from typing import List, Optional, Tuple

#: The loaded C module (None until :func:`load` succeeds) and, after a
#: failed attempt, the reason the tier is unavailable.
_CMOD = None
_REASON: Optional[str] = None
_TRIED = False


def _source_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "_arenakernels.c")


def _cache_dir() -> str:
    explicit = os.environ.get("REPRO_KERNEL_CACHE")
    if explicit:
        return explicit
    return os.path.join(
        tempfile.gettempdir(),
        "repro-kernels-py%d%d" % sys.version_info[:2])


#: The compile flags (the include path is added at build time).
_FLAGS = ("-O2", "-fPIC", "-shared")


def _stamp(source: str, cc: str) -> str:
    """What a cached build depends on, read without hashing the source
    or expanding ``sysconfig``: the source's path, size and mtime, the
    compiler and flags, and the interpreter (its version and
    installation fix the include path and the extension suffix)."""
    st = os.stat(source)
    return "\0".join((source, str(st.st_size), str(st.st_mtime_ns), cc,
                      " ".join(_FLAGS), sys.version, sys.base_prefix,
                      sys.implementation.cache_tag))


def _build(source: str) -> str:
    """Compile (once per source and compile command) and return the
    .so path.  The cache name hashes the source together with the
    compiler, flags, include path and extension suffix, so switching
    compilers never loads another compiler's build.  An index file
    named by the cheap :func:`_stamp` records which build a stamp
    resolved to, so a cache hit neither hashes the source nor imports
    ``sysconfig``."""
    import zlib
    cc = os.environ.get("REPRO_KERNEL_CC") or "cc"
    cache_dir = _cache_dir()
    stamp = _stamp(source, cc)
    index = os.path.join(cache_dir, "_arenakernels_%08x.index"
                         % zlib.crc32(stamp.encode("utf-8")))
    try:
        with open(index, encoding="utf-8") as handle:
            target, recorded = handle.read().split("\n", 1)
        if recorded == stamp and os.path.exists(target):
            return target
    except (OSError, ValueError):
        pass
    target = _compile(source, cc, cache_dir)
    try:
        scratch = index + ".%d" % os.getpid()
        with open(scratch, "w", encoding="utf-8") as handle:
            handle.write(target + "\n" + stamp)
        os.replace(scratch, index)
    except OSError:
        pass  # the index is only a shortcut
    return target


def _compile(source: str, cc: str, cache_dir: str) -> str:
    import hashlib
    import sysconfig
    include = sysconfig.get_paths()["include"]
    compile_cmd = [cc] + list(_FLAGS) + ["-I", include]
    hasher = hashlib.sha256()
    with open(source, "rb") as handle:
        hasher.update(handle.read())
    hasher.update(b"\0" + "\0".join(compile_cmd).encode("utf-8"))
    digest = hasher.hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    os.makedirs(cache_dir, exist_ok=True)
    target = os.path.join(cache_dir,
                          "_arenakernels_%s%s" % (digest, suffix))
    if os.path.exists(target):
        return target
    import subprocess
    scratch = target + ".build-%d" % os.getpid()
    cmd = compile_cmd + ["-o", scratch, source]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=180)
    except (OSError, subprocess.SubprocessError) as exc:
        raise RuntimeError("%s: %s" % (cc, exc))
    if proc.returncode != 0:
        detail = (proc.stderr or proc.stdout or "").strip()
        raise RuntimeError(
            "%s exited %d%s" % (cc, proc.returncode,
                                ": " + detail[-400:] if detail else ""))
    os.replace(scratch, target)  # atomic publish for concurrent builds
    return target


#: The pattern module, imported on first builder use — the kernel tier
#: resolves during ``repro.typegraph.arena``'s own import, which the
#: ``repro`` package may reach *through* ``repro.domains``; importing
#: pattern eagerly here would re-enter that half-initialized package.
_PATTERN = None


def _pattern_mod():
    global _PATTERN
    if _PATTERN is None:
        from ..domains import pattern
        _PATTERN = pattern
    return _PATTERN


def _wire(cmod) -> None:
    """Hand the C module the intern tables it probes and its callbacks
    into the Python object layer.  The pattern layer is handed over as
    a getter (see above): the C module asks for it on its first
    substitution, by which point the domain layer exists."""
    from . import arena, grammar

    cmod.init({
        "grammar_of_key": grammar.grammar_of_key,
        "grammar_table": grammar._INTERN.data,
        "sym_rows": arena._sym_rows,
        "sym": grammar.SYMBOLS.sym,
        "sym_ids": grammar.SYMBOLS._ids,
        "any": grammar.g_any(),
        "bottom": grammar.g_bottom(),
        "pattern": _pattern_mod,
    })


def load():
    """(C module, None) on success, (None, reason) when the tier is
    unavailable.  The outcome is cached; ``_reset_for_tests`` clears
    it so fallback behaviour stays testable."""
    global _CMOD, _REASON, _TRIED
    if _CMOD is not None:
        return _CMOD, None
    if _TRIED:
        return None, _REASON
    _TRIED = True
    try:
        cmod_path = _build(_source_path())
        spec = importlib.util.spec_from_file_location("_arenakernels",
                                                      cmod_path)
        cmod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cmod)
        _wire(cmod)
    except Exception as exc:  # no toolchain, bad cache dir, ...
        _REASON = "%s" % (exc,) or repr(exc)
        return None, _REASON
    _CMOD = cmod
    return _CMOD, None


def _reset_for_tests() -> None:
    global _CMOD, _REASON, _TRIED
    if _CMOD is not None:
        _CMOD.clear_memos()
    _CMOD = None
    _REASON = None
    _TRIED = False


# -- arena-op dispatch surface (arena.NATIVE.<fn>) ---------------------------

def normalize_dense(any_f, int_f, funcs, root_i,
                    max_or_width: Optional[int], prune: bool = True):
    return _CMOD.normalize_dense(any_f, int_f, funcs, root_i,
                                 max_or_width, prune)


def arena_le(g1, g2) -> bool:
    return _CMOD.arena_le(g1, g2)


def arena_union(g1, g2, max_or_width: Optional[int]):
    return _CMOD.arena_union(g1, g2, max_or_width)


def arena_intersect(g1, g2, max_or_width: Optional[int]):
    return _CMOD.arena_intersect(g1, g2, max_or_width)


def arena_functor(name, children, max_or_width: Optional[int]):
    return _CMOD.arena_functor(name, children, max_or_width)


def arena_subgrammar(grammar, nt: int):
    return _CMOD.subgrammar(grammar, nt)


def g_widen(g_old, g_new, max_or_width: Optional[int], strict: bool):
    return _CMOD.g_widen(g_old, g_new, max_or_width, strict)


# -- pattern-layer dispatch surface ------------------------------------------

def value_of(subst, index: int, did: int, max_or_width: Optional[int]):
    return _CMOD.value_of(subst, index, did, max_or_width)


def subst_le(s1, s2, did: int, max_or_width: Optional[int]) -> bool:
    return _CMOD.subst_le(s1, s2, did, max_or_width)


def subst_merge(s1, s2, did: int, max_or_width: Optional[int],
                mode: int, strict: bool, combine):
    """The ``pybuilder.merge`` walk in C.  ``mode`` selects the leaf
    combiner: 1 = the pure-C union (``TypeLeafDomain.join``), 2 = the
    pure-C widening (``TypeLeafDomain.widen``, no type database), 0 =
    call back into the Python ``combine`` for overriding domains."""
    return _CMOD.subst_merge(s1, s2, did, max_or_width, mode, strict,
                             combine)


class NativeSubstBuilder:
    """Drop-in for :class:`repro.domains.pybuilder.SubstBuilder` whose
    union-find nodes and walks live in C.  Only built for
    :class:`~repro.domains.leaf.TypeLeafDomain` (and subclasses that
    keep its meet/split/le primitives), whose operations the C tier
    mirrors exactly."""

    __slots__ = ("domain", "_w")

    def __init__(self, domain) -> None:
        self.domain = domain
        width = getattr(domain, "max_or_width", None)
        self._w = -1 if width is None else int(width)

    def fresh_leaf(self, value=None):
        return _CMOD.kn_leaf(value)

    def make_pattern(self, name: str, is_int: bool, children):
        return _CMOD.kn_pattern(name, is_int, children)

    @staticmethod
    def find(node):
        return _CMOD.kn_find(node)

    def fork(self, roots) -> Tuple["NativeSubstBuilder", List]:
        return NativeSubstBuilder(self.domain), _CMOD.kn_fork(list(roots))

    def unify(self, a, b) -> bool:
        return _CMOD.kn_unify(a, b, self._w)

    def constrain(self, node, value) -> bool:
        return _CMOD.kn_constrain(node, value, self._w)

    def freeze(self, roots):
        return _CMOD.kn_freeze(list(roots), self._w)

    def instantiate(self, subst) -> List:
        return _CMOD.kn_instantiate(subst)

    @staticmethod
    def sv_index(subst, k: int) -> int:
        return subst.sv[k]


def make_builder(domain) -> NativeSubstBuilder:
    return NativeSubstBuilder(domain)


# -- profiling / memo control -------------------------------------------------

def set_profile(enable: bool) -> None:
    _CMOD.set_profile(bool(enable))


def kernel_counters():
    return _CMOD.kernel_counters()


def reset_kernel_counters() -> None:
    _CMOD.reset_kernel_counters()


def stats():
    return _CMOD.stats()


def clear_memos() -> None:
    _CMOD.clear_memos()


def memo_stats():
    return _CMOD.memo_stats()
