"""Code factory: build any of the paper's five code families by name.

The evaluation section sweeps code families by their *total* on-nanowire
length ``M`` (the paper's plotted "code length"), which already includes
the reflected half for tree-code-derived families.  This module provides
the single entry point used by the simulation platform and benches:

>>> from repro.codes.registry import make_code
>>> make_code("BGC", n=2, total_length=8).size
16
>>> make_code("HC", n=2, total_length=6).size
20
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.codes.arranged import ArrangedHotCode
from repro.codes.balanced import BalancedGrayCode
from repro.codes.base import CodeError, CodeSpace
from repro.codes.gray import GrayCode
from repro.codes.hot import HotCode
from repro.codes.tree import TreeCode

#: Families arranged from a tree-code space and used in reflected form.
TREE_FAMILIES = ("TC", "GC", "BGC")
#: Families based on fixed-multiplicity words, used unreflected.
HOT_FAMILIES = ("HC", "AHC")
#: All families in the order the paper introduces them.
ALL_FAMILIES = TREE_FAMILIES + HOT_FAMILIES

_BUILDERS: dict[str, Callable[[int, int], CodeSpace]] = {
    "TC": TreeCode.from_total_length,
    "GC": GrayCode.from_total_length,
    "BGC": BalancedGrayCode.from_total_length,
    "HC": HotCode.from_total_length,
    "AHC": ArrangedHotCode.from_total_length,
}


def make_code(family: str, n: int, total_length: int) -> CodeSpace:
    """Build a code space by family name and total pattern length ``M``.

    Parameters
    ----------
    family:
        One of ``"TC"``, ``"GC"``, ``"BGC"``, ``"HC"``, ``"AHC"``
        (case-insensitive).
    n:
        Logic valence (2 = binary, 3 = ternary, ...).
    total_length:
        Number of doping regions ``M`` along the nanowire.  Tree-derived
        families require it even (reflection); hot families require it to
        be a multiple of ``n``.
    """
    why = design_error(family, n, total_length)
    if why is not None:
        raise CodeError(why)
    return _build_code(family.strip().upper(), int(n), int(total_length))


def design_error(family: str, n: int, total_length: int) -> str | None:
    """Why ``family`` cannot realise a valence-``n`` code of length ``M``,
    or None — decided without building the code.

    The builders' admissibility rule: tree-derived families are used in
    reflected form, so ``M`` must be even; hot families need ``n | M``.
    Building is no check for a request (a BGC code of ``M = 12`` takes
    seconds, ``M = 2**70`` never finishes); a design that passes can
    still fail in a builder's bounded search, far beyond the paper's
    code sizes.
    """
    key = family.strip().upper()
    if key not in _BUILDERS:
        return f"unknown code family {family!r}; expected one of {ALL_FAMILIES}"
    if key in TREE_FAMILIES and total_length % 2:
        kind = "tree" if key == "TC" else "Gray"
        return f"reflected {kind} codes need an even total length, got {total_length}"
    if key in HOT_FAMILIES and total_length % n:
        return f"hot codes need M divisible by n, got M={total_length}, n={n}"
    return None


@lru_cache(maxsize=None)
def _build_code(key: str, n: int, total_length: int) -> CodeSpace:
    """Memoized builder behind :func:`make_code`.

    CodeSpace is immutable, so one instance per (family, n, M) can be
    shared by every sweep/decoder; the family name is normalised before
    the cache so ``"bgc"`` and ``"BGC"`` share an entry.  Failed builds
    (CodeError) are never cached.
    """
    return _BUILDERS[key](n, total_length)


#: Cache introspection for the memoized code builder (exp pipeline uses
#: these to report/clear per-process cache state).
make_code.cache_info = _build_code.cache_info  # type: ignore[attr-defined]
make_code.cache_clear = _build_code.cache_clear  # type: ignore[attr-defined]


def family_lengths(
    family: str, lengths: tuple[int, ...] | None = None
) -> tuple[int, ...]:
    """Default paper sweep lengths for a family (Fig. 7 / Fig. 8 x-axes)."""
    key = family.strip().upper()
    if lengths is not None:
        return lengths
    if key in TREE_FAMILIES:
        return (6, 8, 10)
    if key in HOT_FAMILIES:
        return (4, 6, 8)
    raise CodeError(f"unknown code family {family!r}")


def shortest_covering_code(family: str, n: int, count: int) -> CodeSpace:
    """Smallest code of a family whose space holds >= ``count`` words.

    Used by the Fig. 5 experiment, where each logic valence gets the
    shortest adequate code for ``N`` nanowires per half cave.
    """
    key = family.strip().upper()
    if key == "TC":
        return TreeCode.shortest_covering(n, count)
    if key == "GC":
        return GrayCode.shortest_covering(n, count)
    if key == "BGC":
        tc = TreeCode.shortest_covering(n, count)
        return BalancedGrayCode(n, tc.length)
    if key == "HC":
        return HotCode.shortest_covering(n, count)
    if key == "AHC":
        hc = HotCode.shortest_covering(n, count)
        return ArrangedHotCode(n, hc.k)
    raise CodeError(f"unknown code family {family!r}")
