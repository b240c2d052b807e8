"""Virasoro minimal models: Kac tables, fusion rules and irreducible characters.

The model with coprime parameters (p, q), both at least 3, has central charge
``1 - 6(p-q)^2/(pq)`` and irreducible modules indexed by Kac labels (r, s)
with ``1 <= r <= q-1`` and ``1 <= s <= p-1``, identified in pairs under
``(r, s) ~ (q-r, p-s)``.  Fusion is the product of the su(2) fusion rules at
levels q-2 (on r) and p-2 (on s), read through the Kac identification; since
one of p, q is odd, at most one label of each pair occurs, so multiplicities
are 0 or 1.  Fusion is commutative, so ``fuse`` puts its two canonical
labels in order and builds each product once per unordered pair; it returns
that cached ``ModuleSum``, immutable so that no caller can change it under
another, for either order on every later call.
``canon`` returns the label itself when it is already canonical.  The range
check and ``canon`` read r and s through ``operator.index``, so a label
whose r or s is not an integer (``1.0`` and ``Fraction(1)`` hash like ``1``)
raises TypeError before a cached character or product is read.  A product
and a sum of two multisets hold distinct canonical labels already, so the
trusted ``ModuleSum._from_sorted`` builds them with no re-check and no
re-fold from a dict already in label order: a product sorts its canonical
int pairs once, and a sum copies its left operand's mapping and sorts the
merged labels only when the right operand brought new ones; a sum with an
empty operand is the other operand.  The
admissible-triple conditions (triangle inequalities, parity, and the range
caps 2q-1 / 2p-1 on the label sums) live on in the test suite, as its
independent reference for fusion.

``KacLabel`` is a ``collections.namedtuple``, so it equals the plain tuple
(r, s).  ``MinimalModel`` and the package's other immutable records (the
osp(1|2) and sl2 labels, branch terms, comparisons, reports and extended
labels) derive from the private ``_Record``: plain classes whose
``__init__`` takes the fields by position or keyword and runs the record's
checks, equal and hashed by type and fields, with a ``Name(field=value,
...)`` repr.  Their methods are written out, not generated, so importing
the package loads neither ``inspect`` nor ``typing``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import attrgetter, index
from types import MappingProxyType

from .series import FracSeries, _character, _immutable

__all__ = ["KacLabel", "MinimalModel", "ModuleSum"]


KacLabel = namedtuple("KacLabel", "r s")
KacLabel.__str__ = lambda self: f"({self.r},{self.s})"


class _Record:
    """Base of the package's immutable records.

    A record names its two or more fields, in order, in ``_fields``.  Its
    ``__init__`` stores them through ``self.__dict__``, as ``__setattr__``
    refuses, before any check; cached properties keep their values in the
    same ``__dict__``.  Records are equal, and hash alike, when they are of
    one type with equal fields; records of two types never compare equal.
    The repr is ``Name(field=value, ...)``, and setting or deleting any
    attribute raises AttributeError.
    """

    __setattr__ = __delattr__ = _immutable

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls._fields))  # the field values, as a tuple

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__name__}({fields})"


class ModuleSum:
    """Finite multiset of canonical Kac labels with positive multiplicities.

    Immutable, so one instance can be shared: ``mults`` is a read-only
    mapping, and setting or deleting any attribute raises AttributeError.
    Subclasses name their label type in ``_label`` and fold equivalent
    labels in ``_key``.
    """

    __slots__ = ("mults",)
    _key = staticmethod(lambda label: label)
    _label = KacLabel

    def __init__(self, mults: dict):
        acc = {}
        for lab, m in mults.items():
            if not isinstance(lab, self._label):
                raise TypeError(f"key {lab!r} is not of type {self._label.__name__}")
            if not isinstance(m, int) or isinstance(m, bool):
                raise TypeError(f"multiplicity {m!r} of {lab} is not an int")
            if m < 0:
                raise ValueError("multiplicities must be nonnegative")
            if m:
                key = self._key(lab)
                acc[key] = acc.get(key, 0) + m
        object.__setattr__(self, "mults", MappingProxyType(dict(sorted(acc.items()))))

    @classmethod
    def _from_sorted(cls, mults: dict) -> "ModuleSum":
        """Trusted: positive multiplicities on distinct, already folded ``_label`` keys, ascending.

        The new multiset keeps ``mults`` itself as its mapping, so the caller
        hands over a dict it holds no other reference to.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "mults", MappingProxyType(mults))
        return out

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if isinstance(other, dict):
            try:
                other = type(self)(other)
            except (TypeError, ValueError):
                return False
        return type(other) is type(self) and self.mults == other.mults

    def __iter__(self):
        return iter(self.mults.items())

    def __len__(self):
        return len(self.mults)

    def __getitem__(self, label) -> int:
        return self.mults.get(self._key(label), 0)

    def __add__(self, other: "ModuleSum") -> "ModuleSum":
        if type(other) is not type(self):
            return NotImplemented
        if not other.mults:
            return self
        if not self.mults:
            return other
        acc = self.mults.copy()
        for lab, m in other.mults.items():
            acc[lab] = acc.get(lab, 0) + m
        # labels already in self keep its ascending order; only new ones need a sort
        return self._from_sorted(acc if len(acc) == len(self.mults) else dict(sorted(acc.items())))

    def to_json(self) -> list[dict]:
        return [{"r": lab.r, "s": lab.s, "mult": m} for lab, m in self]

    def __repr__(self):
        inner = " + ".join(
            (f"{m}*" if m != 1 else "") + str(lab) for lab, m in self
        )
        return f"<{type(self).__name__} {inner or '0'}>"


class MinimalModel(_Record):
    """The (p, q) Virasoro minimal model: p and q distinct, coprime and at least 3."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        self.__dict__.update(p=p, q=q)
        if p < 3 or q < 3:
            raise ValueError(f"need p, q >= 3, got ({p}, {q})")
        if p == q or gcd(p, q) != 1:
            raise ValueError(f"p and q must be distinct and coprime, got ({p}, {q})")

    # -- weights ----------------------------------------------------------

    def central_charge(self) -> Fraction:
        p, q = self.p, self.q
        return 1 - Fraction(6 * (p - q) ** 2, p * q)

    def in_range(self, label: KacLabel) -> bool:
        return 1 <= label.r <= self.q - 1 and 1 <= label.s <= self.p - 1

    def _check(self, label: KacLabel) -> KacLabel:
        """The label itself; TypeError unless r and s are integers, ValueError out of range."""
        if not self.in_range(KacLabel(index(label.r), index(label.s))):
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

    def canon(self, label: KacLabel) -> KacLabel:
        """Smaller of (r,s) and (q-r,p-s) by (r, then s); the label itself when it is that one."""
        r, s, q, p = index(label.r), index(label.s), self.q, self.p
        if not (1 <= r < q and 1 <= s < p):
            self._check(label)  # raises
        if r < q - r or (r == q - r and s < p - s):  # a tie would need p, q both even
            return label
        return KacLabel(q - r, p - s)

    def canonical_labels(self) -> list[KacLabel]:
        return sorted({self.canon(KacLabel(r, s))
                       for r in range(1, self.q) for s in range(1, self.p)})

    # -- fusion -------------------------------------------------------------

    def fuse(self, t1: KacLabel, t2: KacLabel) -> ModuleSum:
        """Fusion product on canonical labels (0/1); one shared object per unordered pair."""
        t1, t2 = self.canon(t1), self.canon(t2)
        if t2 < t1:
            t1, t2 = t2, t1
        return _fuse(self.p, self.q, t1, t2)

    # -- characters ------------------------------------------------------------

    def character(self, label: KacLabel, order: int = 20) -> FracSeries:
        """Graded dimension series ``Tr q^(L0 - c/24)`` of the irreducible module.

        Theta-difference over eta (Rocha-Caridi): exact through h - c/24 +
        order, and no further.  Built once per distinct (model, label, order)
        by the cached ``series._character`` and shared by every caller.  Its
        lead h - c/24 is the integer pair (6(sq - rp)^2 - pq) / 24pq.
        """
        order = index(order)
        r, s = self._check(label)
        p, q = self.p, self.q
        return _character(
            ((1, 4 * p * q), 2 * p * q, False, ((1, p * r - q * s), (-1, p * r + q * s))),
            euler_parts=((-1, -1),),
            eta_den=24,
            lead=(6 * (s * q - r * p) ** 2 - p * q, 24 * p * q),
            order=order,
        )


@lru_cache(maxsize=None)
def _fuse(p, q, t1, t2) -> ModuleSum:
    """The su(2)_{q-2} x su(2)_{p-2} product of canonical labels t1 <= t2, on canonical labels."""
    (r1, s1), (r2, s2) = t1, t2
    terms = sorted(
        min((r, s), (q - r, p - s))
        for r in range(abs(r1 - r2) + 1, min(r1 + r2, 2 * q - r1 - r2), 2)
        for s in range(abs(s1 - s2) + 1, min(s1 + s2, 2 * p - s1 - s2), 2)
    )
    return ModuleSum._from_sorted(dict.fromkeys(map(KacLabel._make, terms), 1))
