"""Fusion ring of the simple-current extension of the (10,7) minimal model.

The extension algebra is V(1,1) + V(6,1) inside the c = 8/35 model.  Fusing
with the weight-10 simple current sends a canonical label (r, s) to
(r, 10-s), so the 27 canonical labels fall into 12 two-element orbits and 3
fixed points (the s = 5 column).  Each orbit carries one extended module;
each fixed point carries two inequivalent ones, which this module tracks
only through a flag.

Extended fusion is computed by inducing: pick one Virasoro constituent of
each factor, fuse them in the minimal model, then replace every label in the
result by its orbit.  An orbit picked up through both of its members counts
twice; the outcome does not depend on which constituents were chosen.  The
result is an ``ExtModuleSum``: the minimal model's ``ModuleSum`` multiset
with every label folded onto its orbit representative.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction

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
    """Extended module V(r,s) + V(7-r,s); presented with 1 <= r <= 3."""

    r: int
    s: int

    @property
    def constituents(self) -> tuple[KacLabel, KacLabel]:
        return (
            MODEL.canon(KacLabel(self.r, self.s)),
            MODEL.canon(KacLabel(7 - self.r, self.s)),
        )

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
        return ExtLabel(self.r, min(self.s, 10 - self.s))

    def __str__(self):
        return f"Ext({self.r},{self.s})"


def ext_label(r: int, s: int) -> ExtLabel:
    """Build an extended label, accepting either the r or the 7-r presentation."""
    if not (1 <= r <= 6 and 1 <= s <= 9):
        raise ValueError(f"extended label ({r},{s}) out of range")
    return ExtLabel(min(r, 7 - r), s)


class ExtModuleSum(ModuleSum):
    """Multiset of orbit representatives with positive multiplicities."""

    _key = staticmethod(ExtLabel.orbit)


def classify_ext_modules() -> tuple[list[ExtLabel], list[KacLabel]]:
    """Partition the 27 canonical labels into simple-current orbits and fixed points.

    Returns the 12 orbit modules (one ExtLabel each, unique extended
    structure) and the 3 fixed-point labels (two structures each);
    2 * 12 + 3 = 27.
    """
    seen = set()
    orbits = []
    fixed = []
    for lab in MODEL.canonical_labels():
        if lab in seen:
            continue
        image = simple_current_image(lab)
        if image == lab:
            fixed.append(lab)
        else:
            seen.add(image)
            orbits.append(ExtLabel(lab.r, lab.s).orbit())
        seen.add(lab)
    return sorted(orbits), sorted(fixed)


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
    for index in (constituent_a, constituent_b):
        if index not in (0, 1):
            raise ValueError(f"constituent index must be 0 or 1, got {index!r}")
    for lab in (a, b):
        if not (1 <= lab.r <= 3 and 1 <= lab.s <= 9):
            raise ValueError(f"{lab} is not an irreducible extended label")
        if lab.fixed_point:
            warnings.warn(
                f"{lab} is a fixed point; fusion is formal bookkeeping",
                FixedPointFusionWarning,
                stacklevel=2,
            )
    va = a.constituents[constituent_a]
    vb = b.constituents[constituent_b]
    return ExtModuleSum({ExtLabel(lab.r, lab.s): m for lab, m in MODEL.fuse(va, vb)})


def fusion_table() -> list[dict]:
    """Deterministic JSON-ready fusion table over all 27 presented labels."""
    out = []
    labels = ext_irreducibles()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FixedPointFusionWarning)
        for a in labels:
            for b in labels:
                out.append(
                    {
                        "a": [a.r, a.s],
                        "b": [b.r, b.s],
                        "result": ext_fuse(a, b).to_json(),
                    }
                )
    return out


def fusion_table_json() -> str:
    return json.dumps(fusion_table())
