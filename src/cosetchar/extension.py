"""Fusion ring of the simple-current extension of the (10,7) minimal model.

The extension algebra is V(1,1) + V(6,1) inside the c = 8/35 model.  Fusing
with the weight-10 simple current sends a canonical label (r, s) to
(r, 10-s), so the 27 canonical labels fall into 12 two-element orbits and 3
fixed points (the s = 5 column).  Each orbit carries one extended module;
each fixed point carries two inequivalent ones, which this module tracks
only through a flag.  The action is written once, in
``simple_current_image``, and the orbit representative once, in ``_orbit``:
a label's constituents, its orbit, the fold and the census
(``classify_ext_modules``, read from ``ext_irreducibles``) all use them.

Extended fusion is computed by inducing: pick one Virasoro constituent of
each factor, fuse them in the minimal model, then replace every label in the
result by its orbit.  An orbit picked up through both of its members counts
twice; the outcome does not depend on which constituents were chosen.  The
fold is written once, in ``_fold``: it reads the minimal model's cached
product of two canonical constituents t1 <= t2, which is already canonical,
and returns its orbit representatives as sorted ``(r, s, mult)`` int
triples, cached per unordered pair.  Two readers share it:

- ``ext_fuse`` checks its arguments and warns ``FixedPointFusionWarning``
  about a fixed point on every call, then returns ``_induced``, the fold
  wrapped once per unordered pair in a shared ``ExtModuleSum``;
- ``fusion_table`` and the ``fusion --table`` command write their JSON rows
  straight from the int triples through ``_table_entries``, with no label
  object per term, no ``ext_fuse`` call and no warning: the first
  constituent of each presented label (r, s) is the canonical label (r, s).
  The (p, q) table of ``fusion vir`` goes through the same writer, its rows
  read from the minimal model's cached products.

``fusion_entries`` builds the JSON-ready entry of a single ``--a``/``--b``
pair through the object API of either scope.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import index

from . import minimal
from .minimal import KacLabel, MinimalModel, ModuleSum

__all__ = [
    "ExtLabel",
    "ExtModuleSum",
    "FixedPointFusionWarning",
    "ext_label",
    "simple_current_image",
    "classify_ext_modules",
    "ext_irreducibles",
    "ext_fuse",
    "fusion_entries",
    "fusion_table",
]

MODEL = MinimalModel(10, 7)
SIMPLE_CURRENT = KacLabel(6, 1)


class FixedPointFusionWarning(UserWarning):
    """Fusion involving a fixed-point module is bookkeeping only.

    A fixed point carries two extended-module structures; their individual
    fusion rules are not resolved here.
    """


def simple_current_image(label: KacLabel) -> KacLabel:
    """Canonical label of the simple-current fusion image, (r,s) -> canon(7-r,s)."""
    if not MODEL.in_range(label):
        raise ValueError(f"label {label} out of range for the (10,7) model")
    return MODEL.canon(KacLabel(7 - label.r, label.s))


@dataclass(frozen=True, order=True)
class ExtLabel:
    """Extended module V(r,s) + V(7-r,s), presented with r in 1..3 and s in 1..9."""

    r: int
    s: int

    def __post_init__(self):
        if not (1 <= index(self.r) <= 3 and 1 <= index(self.s) <= 9):
            raise ValueError(f"{self} is not an irreducible extended label")

    @cached_property
    def constituents(self) -> tuple[KacLabel, KacLabel]:
        """V(r,s) (canonical, as r <= 3) and its simple-current image."""
        lab = KacLabel(self.r, self.s)
        return lab, simple_current_image(lab)

    @property
    def fixed_point(self) -> bool:
        a, b = self.constituents
        return a == b

    @property
    def weights(self) -> tuple[Fraction, Fraction]:
        a, b = self.constituents
        return MODEL.conformal_weight(a), MODEL.conformal_weight(b)

    def orbit(self) -> "ExtLabel":
        """Orbit representative: same module, s pulled into 1..5."""
        return ExtLabel(*_orbit(self.r, self.s))

    def __str__(self):
        return f"Ext({self.r},{self.s})"


def _orbit(r: int, s: int) -> tuple[int, int]:
    """The orbit representative of the presented label (r, s): (r, min(s, 10-s))."""
    return r, min(s, 10 - s)


def ext_label(r: int, s: int) -> ExtLabel:
    """Build an extended label, accepting either the r or the 7-r presentation."""
    if not (1 <= r <= 6 and 1 <= s <= 9):
        raise ValueError(f"extended label ({r},{s}) out of range")
    return ExtLabel(min(r, 7 - r), s)


class ExtModuleSum(ModuleSum):
    """Multiset of orbit representatives with positive multiplicities."""

    __slots__ = ()
    _key = staticmethod(ExtLabel.orbit)
    _label = ExtLabel


def classify_ext_modules() -> tuple[list[ExtLabel], list[KacLabel]]:
    """Partition the 27 canonical labels into simple-current orbits and fixed points.

    Returns the 12 orbit modules (one ExtLabel each, unique extended
    structure) and the 3 fixed-point labels (two structures each);
    2 * 12 + 3 = 27.
    """
    labels = ext_irreducibles()
    fixed = [lab.constituents[0] for lab in labels if lab.fixed_point]
    orbits = {lab.orbit() for lab in labels if not lab.fixed_point}
    return sorted(orbits), fixed


def ext_irreducibles() -> list[ExtLabel]:
    """The 27 presented labels, r in 1..3 and s in 1..9.

    The list repeats each orbit module twice (as (r,s) and (r,10-s)); only
    the fixed points s = 5 appear once.  Use classify_ext_modules for the
    deduplicated census.
    """
    return [ExtLabel(r, s) for r in range(1, 4) for s in range(1, 10)]


def ext_fuse(
    a: ExtLabel, b: ExtLabel, constituent_a: int = 0, constituent_b: int = 0
) -> ExtModuleSum:
    """Extended fusion product via induction from one constituent of each factor.

    Every Virasoro label in the constituent fusion contributes its full
    orbit; multiplicities from the two members of one orbit add.  The choice
    of constituents (indices 0 or 1) does not change the result.
    """
    picked = []
    for lab, which in ((a, constituent_a), (b, constituent_b)):
        if which not in (0, 1):
            raise ValueError(f"constituent index must be 0 or 1, got {which!r}")
        pair = lab.constituents
        if pair[0] == pair[1]:
            warnings.warn(
                f"{lab} is a fixed point; fusion is formal bookkeeping",
                FixedPointFusionWarning,
                stacklevel=2,
            )
        picked.append(pair[which])
    t1, t2 = picked
    return _induced(t1, t2) if t1 <= t2 else _induced(t2, t1)


@lru_cache(maxsize=None)
def _fold(t1: KacLabel, t2: KacLabel) -> tuple[tuple[int, int, int], ...]:
    """Orbit fold of the (10,7) product of canonical constituents t1 <= t2.

    Sorted ``(r, s, mult)`` int triples, one per orbit representative.
    """
    out = {}
    # minimal._fuse is read through its module, so the cache has one name
    for (r, s), m in minimal._fuse(MODEL.p, MODEL.q, t1, t2).mults.items():
        key = _orbit(r, s)
        out[key] = out.get(key, 0) + m
    return tuple((r, s, m) for (r, s), m in sorted(out.items()))


@lru_cache(maxsize=None)
def _induced(t1: KacLabel, t2: KacLabel) -> ExtModuleSum:
    """The fold of canonical constituents t1 <= t2 as one shared ExtModuleSum."""
    return ExtModuleSum._from_sorted({ExtLabel(r, s): m for r, s, m in _fold(t1, t2)})


def fusion_entries(fuse, pairs) -> list[dict]:
    """JSON-ready ``{a, b, result}`` entries of ``fuse(a, b)`` over the label pairs.

    ``FixedPointFusionWarning`` is silenced for the whole batch.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FixedPointFusionWarning)
        return [{"a": [a.r, a.s], "b": [b.r, b.s], "result": fuse(a, b).to_json()}
                for a, b in pairs]


def _table_entries(labels, terms) -> list[dict]:
    """JSON-ready ``{a, b, result}`` entries of every ordered pair of canonical ``labels``.

    ``terms(t1, t2)`` gives the product of t1 <= t2 as ``(r, s, mult)`` int
    triples in ascending order, the form of ``ModuleSum.to_json``.
    """
    return [{"a": [*a], "b": [*b],
             "result": [{"r": r, "s": s, "mult": m}
                        for r, s, m in (terms(a, b) if a <= b else terms(b, a))]}
            for a in labels for b in labels]


def fusion_table() -> list[dict]:
    """Deterministic JSON-ready fusion table over all 27 presented labels.

    The presented label (r, s) has the canonical (10,7) label (r, s) as its
    first constituent, so the 27 canonical labels, in order, index the rows
    of ``ext_fuse`` at constituent 0; each row is written from ``_fold``.
    """
    return _table_entries(MODEL.canonical_labels(), _fold)
