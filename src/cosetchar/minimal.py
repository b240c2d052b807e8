"""Virasoro minimal models: Kac tables, fusion rules and irreducible characters.

The model with coprime parameters (p, q), both at least 3, has central charge
``1 - 6(p-q)^2/(pq)`` and irreducible modules indexed by Kac labels (r, s)
with ``1 <= r <= q-1`` and ``1 <= s <= p-1``, identified in pairs under
``(r, s) ~ (q-r, p-s)``.  Fusion is the product of the su(2) fusion rules at
levels q-2 (on r) and p-2 (on s), read through the Kac identification; since
one of p, q is odd, at most one label of each pair occurs, so multiplicities
are 0 or 1.  The admissible-triple conditions (triangle inequalities, parity,
and the range caps 2q-1 / 2p-1 on the label sums) survive as
``MinimalModel.is_admissible`` and as the test suite's reference for fusion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .series import FracSeries, _character, theta_null

__all__ = ["KacLabel", "MinimalModel", "ModuleSum"]


class KacLabel(NamedTuple):
    r: int
    s: int

    def __str__(self):
        return f"({self.r},{self.s})"


class ModuleSum:
    """Finite multiset of canonical Kac labels with positive multiplicities.

    Subclasses fold equivalent labels onto one key by overriding ``_key``.
    """

    _key = staticmethod(lambda label: label)

    def __init__(self, mults: dict):
        if any(m < 0 for m in mults.values()):
            raise ValueError("multiplicities must be nonnegative")
        acc = {}
        for lab, m in mults.items():
            if m:
                key = self._key(lab)
                acc[key] = acc.get(key, 0) + m
        self.mults = dict(sorted(acc.items()))

    def __eq__(self, other):
        if isinstance(other, dict):
            other = type(self)(other)
        return type(other) is type(self) and self.mults == other.mults

    def __iter__(self):
        return iter(self.mults.items())

    def __len__(self):
        return len(self.mults)

    def __getitem__(self, label) -> int:
        return self.mults.get(self._key(label), 0)

    def __add__(self, other: "ModuleSum") -> "ModuleSum":
        out = dict(self.mults)
        for lab, m in other.mults.items():
            out[lab] = out.get(lab, 0) + m
        return type(self)(out)

    def to_json(self) -> list[dict]:
        return [{"r": lab.r, "s": lab.s, "mult": m} for lab, m in self]

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    def __repr__(self):
        inner = " + ".join(
            (f"{m}*" if m != 1 else "") + str(lab) for lab, m in self
        )
        return f"<{type(self).__name__} {inner or '0'}>"


@dataclass(frozen=True)
class MinimalModel:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 3 or self.q < 3:
            raise ValueError(f"need p, q >= 3, got ({self.p}, {self.q})")
        if self.p == self.q or gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be distinct and coprime, got ({self.p}, {self.q})")

    # -- weights ----------------------------------------------------------

    def central_charge(self) -> Fraction:
        p, q = self.p, self.q
        return 1 - Fraction(6 * (p - q) ** 2, p * q)

    def in_range(self, label: KacLabel) -> bool:
        return 1 <= label.r <= self.q - 1 and 1 <= label.s <= self.p - 1

    def _check(self, label: KacLabel) -> KacLabel:
        if not self.in_range(label):
            raise ValueError(f"label {label} outside 1..{self.q - 1} x 1..{self.p - 1}")
        return label

    def conformal_weight(self, label: KacLabel) -> Fraction:
        r, s = self._check(label)
        p, q = self.p, self.q
        return Fraction((s * q - r * p) ** 2 - (p - q) ** 2, 4 * p * q)

    def kac_table(self) -> list[list[Fraction]]:
        """(q-1) x (p-1) matrix of weights, rows indexed by r, columns by s."""
        return [
            [self.conformal_weight(KacLabel(r, s)) for s in range(1, self.p)]
            for r in range(1, self.q)
        ]

    # -- label identification ----------------------------------------------

    def kac_partner(self, label: KacLabel) -> KacLabel:
        self._check(label)
        return KacLabel(self.q - label.r, self.p - label.s)

    def canon(self, label: KacLabel) -> KacLabel:
        """Smaller of (r,s) and (q-r,p-s) by (r, then s)."""
        partner = self.kac_partner(label)
        return min(label, partner)

    def canonical_labels(self) -> list[KacLabel]:
        out = set()
        for r in range(1, self.q):
            for s in range(1, self.p):
                out.add(self.canon(KacLabel(r, s)))
        return sorted(out)

    # -- fusion -------------------------------------------------------------

    def is_admissible(self, t1: KacLabel, t2: KacLabel, t3: KacLabel) -> bool:
        """Admissibility of the raw triple; representatives are not swapped."""
        for t in (t1, t2, t3):
            self._check(t)
        rs = (t1.r, t2.r, t3.r)
        ss = (t1.s, t2.s, t3.s)
        return _triple_ok(rs, 2 * self.q - 1) and _triple_ok(ss, 2 * self.p - 1)

    def fusion_dim(self, t1: KacLabel, t2: KacLabel, t3: KacLabel) -> int:
        """1 iff the class of t3 occurs in the fusion product of t1 and t2."""
        return int(self.canon(t3) in _fuse(self.p, self.q, self.canon(t1), self.canon(t2)))

    def fuse(self, t1: KacLabel, t2: KacLabel) -> ModuleSum:
        """Fusion product as a sum of canonical labels (multiplicities 0/1)."""
        return ModuleSum(dict.fromkeys(_fuse(self.p, self.q, self.canon(t1), self.canon(t2)), 1))

    # -- characters ------------------------------------------------------------

    def character(self, label: KacLabel, order: int = 20) -> FracSeries:
        """Graded dimension series ``Tr q^(L0 - c/24)`` of the irreducible module.

        Theta-difference over eta: exact at least through the exponent
        ``h - c/24 + order``.
        """
        r, s = self._check(label)
        p, q = self.p, self.q
        return _character(
            lambda bound: theta_null(p * q, p * r - q * s, bound)
            - theta_null(p * q, p * r + q * s, bound),
            euler_parts=((-1, -1),),
            eta_den=24,
            target=self.conformal_weight(label) - self.central_charge() / 24 + order,
            order=order,
        )


def _triple_ok(xs: tuple[int, int, int], cap: int) -> bool:
    a, b, c = xs
    total = a + b + c
    if total > cap or total % 2 == 0:
        return False
    return a < b + c and b < a + c and c < a + b


@lru_cache(maxsize=None)
def _fuse(p, q, t1, t2):
    """Canonical labels of the su(2)_{q-2} x su(2)_{p-2} product, sorted."""
    (r1, s1), (r2, s2) = t1, t2
    return tuple(
        sorted(
            {
                KacLabel(*min((r, s), (q - r, p - s)))
                for r in range(abs(r1 - r2) + 1, min(r1 + r2, 2 * q - r1 - r2), 2)
                for s in range(abs(s1 - s2) + 1, min(s1 + s2, 2 * p - s1 - s2), 2)
            }
        )
    )


def kac_table_csv(model: MinimalModel) -> str:
    """Grid of exact num/den strings, rows r = 1..q-1, columns s = 1..p-1."""
    lines = []
    for row in model.kac_table():
        lines.append(",".join(f"{w.numerator}/{w.denominator}" for w in row))
    return "\n".join(lines) + "\n"
