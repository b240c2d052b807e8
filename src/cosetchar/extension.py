"""Fusion ring of the simple-current extension of the (10,7) minimal model.

The extension algebra is V(1,1) + V(6,1) inside the c = 8/35 model.  Fusing
with the weight-10 simple current sends a canonical label (r, s) to
(r, 10-s), so the 27 canonical labels fall into 12 two-element orbits and 3
fixed points (the s = 5 column).  Each orbit carries one extended module;
each fixed point carries two inequivalent ones, which this module tracks
only through a flag.  The action is written once, in
``simple_current_image``, and the orbit representative once, in ``_orbit``:
a label's constituents, its orbit, the induced fold and the census
(``classify_ext_modules``, read from ``ext_irreducibles``) all use them.

Extended fusion is computed by inducing: pick one Virasoro constituent of
each factor, fuse them in the minimal model, then replace every label in the
result by its orbit.  An orbit picked up through both of its members counts
twice; the outcome does not depend on which constituents were chosen.  Each
label looks its constituent pair up once and keeps it.  ``ext_fuse`` checks
its arguments and warns about a fixed point on every call, then returns the
induced product from a cache keyed by the unordered constituent pair, so
each induced product is folded once.  The minimal model's cached product is
already canonical, so the fold goes straight onto orbit representatives and
builds the ``ExtModuleSum`` unchecked.
``fusion_entries`` is the one builder of JSON-ready fusion entries, for
``fusion_table`` and for both scopes of the ``fusion`` command.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import index

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
        return _orbit(self.r, self.s)

    def __str__(self):
        return f"Ext({self.r},{self.s})"


def _orbit(r: int, s: int) -> ExtLabel:
    """The orbit representative of the presented label (r, s): (r, min(s, 10-s))."""
    return ExtLabel(r, min(s, 10 - s))


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
def _induced(t1: KacLabel, t2: KacLabel) -> ExtModuleSum:
    """Orbit fold of the minimal-model product of canonical constituents t1 <= t2."""
    out = {}
    for lab, m in MODEL.fuse(t1, t2):
        key = _orbit(lab.r, lab.s)
        out[key] = out.get(key, 0) + m
    return ExtModuleSum._from_mults(out)


def fusion_entries(fuse, pairs) -> list[dict]:
    """JSON-ready ``{a, b, result}`` entries of ``fuse(a, b)`` over the label pairs.

    ``FixedPointFusionWarning`` is silenced for the whole batch.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FixedPointFusionWarning)
        return [{"a": [a.r, a.s], "b": [b.r, b.s], "result": fuse(a, b).to_json()}
                for a, b in pairs]


def fusion_table() -> list[dict]:
    """Deterministic JSON-ready fusion table over all 27 presented labels."""
    return fusion_entries(ext_fuse, itertools.product(ext_irreducibles(), repeat=2))
