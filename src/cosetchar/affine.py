"""Specialized characters of affine osp(1|2) and sl2 modules, and their branching.

Level-l affine osp(1|2) has l+1 irreducible modules M_r, r = 1, 3, ..., 2l+1,
each splitting into an even and an odd part.  Both parts branch over
affine sl2 at level l times the (2l+3, l+2) Virasoro minimal model:

    even part of M_r  =  sum over even i of  L(l,i) (x) V_{i+1,r}
    odd  part of M_r  =  sum over odd  i of  L(l,i) (x) V_{i+1,r}

All characters here are single-variable graded dimensions Tr q^(L0 - c/24).
The osp(1|2) character is a weighted theta sum times prod(1+q^n)^2 over
q^(1/24) prod(1-q^n)^3; the specialized affine sl2 character is the
Weyl-Kac numerator sum_m (2(l+2)m + i+1) q^((l+2)(m + (i+1)/(2(l+2)))^2)
over q^(1/8) prod(1-q^n)^3.  Both are assembled by the cached
``series._character``, so each distinct character is built once and shared;
an order that is not an integer raises TypeError before that cache is read.
The two routes are tied together by the branching identity, which the test
suite checks coefficientwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import index

from .minimal import KacLabel, MinimalModel, _Record
from .series import FracSeries, _character, _rat

__all__ = [
    "OspLabel",
    "Sl2Label",
    "BranchTerm",
    "osp_central_charge",
    "osp_modules",
    "osp_weight",
    "osp_character",
    "sl2_central_charge",
    "sl2_weight",
    "sl2_character",
    "branch_model",
    "branch_terms",
    "branch_character",
    "lowest_space",
    "h_alpha_beta",
    "singular_weights",
]


class OspLabel(_Record):
    """Irreducible module M_r of affine osp(1|2) at level l; r odd, 1 <= r <= 2l+1."""

    _fields = ("l", "r")

    def __init__(self, l: int, r: int):
        self.__dict__.update(l=l, r=r)
        Sl2Label(l, 0)  # the level check
        if index(r) % 2 == 0 or not 1 <= r <= 2 * l + 1:
            raise ValueError(f"r must be odd in 1..{2 * l + 1}, got {r}")

    @property
    def lead(self) -> Fraction:
        """h - c/24: the exponent of the leading term of the character of M_r."""
        return Fraction(*_osp_lead(self))


class Sl2Label(_Record):
    """Irreducible module L(l, i) of affine sl2 at level l; 0 <= i <= l."""

    _fields = ("l", "i")

    def __init__(self, l: int, i: int):
        self.__dict__.update(l=l, i=i)
        if index(l) < 1:
            raise ValueError("level must be a positive integer")
        if not 0 <= index(i) <= l:
            raise ValueError(f"i must lie in 0..{l}, got {i}")


class BranchTerm(_Record):
    """Summand L(l,i) (x) V_{i+1,r} of the branching of M_r; even or odd with i."""

    _fields = ("l", "i", "r")

    def __init__(self, l: int, i: int, r: int):
        self.__dict__.update(l=l, i=i, r=r)
        Sl2Label(l, i)
        OspLabel(l, r)

    @property
    def sl2(self) -> Sl2Label:
        return Sl2Label(self.l, self.i)

    @property
    def vir(self) -> KacLabel:
        return KacLabel(self.i + 1, self.r)

    @property
    def parity(self) -> str:
        return "odd" if self.i % 2 else "even"

    @cached_property
    def weight(self) -> Fraction:
        return sl2_weight(self.sl2) + branch_model(self.l).conformal_weight(self.vir)

    def to_json(self) -> dict:
        return {"sl2": {"level": self.l, "i": self.i}, "vir": self.vir._asdict(),
                "parity": self.parity, "weight": _rat(self.weight)}


def osp_central_charge(l: int) -> Fraction:
    OspLabel(l, 1)
    return Fraction(2 * l, 2 * l + 3)


def osp_modules(l: int) -> list[OspLabel]:
    OspLabel(l, 1)
    return [OspLabel(l, r) for r in range(1, 2 * l + 2, 2)]


def osp_weight(l: int, r: int) -> Fraction:
    """Conformal weight of the lowest space of M_r."""
    OspLabel(l, r)
    return Fraction(r * r - 1, 8 * (2 * l + 3))


def osp_character(lab: OspLabel, order: int = 20) -> FracSeries:
    """Character of M_r, exact through q^(h - c/24 + order), and no further.

    Weighted theta sum over the super denominator:
    sum_m (2am+r) q^((a/2)(m + r/(2a))^2) * prod(1+q^n)^2
    / (q^(1/24) prod(1-q^n)^3), with a = 2l+3.
    """
    order = index(order)
    a = 2 * lab.l + 3
    return _character(
        ((1, 8 * a), 2 * a, True, ((1, lab.r),)),
        euler_parts=((1, 2), (-1, -3)),
        eta_den=24,
        lead=_osp_lead(lab),
        order=order,
    )


def _osp_lead(lab: OspLabel) -> tuple[int, int]:
    """h - c/24 of M_r as the integer pair (3(r^2 - 1) - 2l) / 24(2l+3)."""
    return 3 * (lab.r * lab.r - 1) - 2 * lab.l, 24 * (2 * lab.l + 3)


def _osp_supercharacter(lab: OspLabel, order: int) -> FracSeries:
    """Even part minus odd part of M_r, exact through q^(h - c/24 + order), and no further.

    The Andrews-Gordon product (-1)^((r-1)/2) q^(h-c/24) prod 1/(1-q^n) over
    n >= 1, n != 0, +-i (mod a), with a = 2l+3 and i = (a-r)/2: up to sign the
    (2, 2l+3) minimal-model character of label i (Andrews 1974, Proc. Nat. Acad.
    Sci. USA 71; Rocha-Caridi 1985), for l = 1 the Rogers-Ramanujan G (r = 1)
    and -H (r = 3).  One dense pass per allowed n, with no theta sum or Euler row.
    """
    order = index(order)
    if order < 0:
        raise ValueError("order must be >= 0")
    a = 2 * lab.l + 3
    row = [1] + [0] * order
    for n in range(1, order + 1):
        if n % a not in (0, (a - lab.r) // 2, (a + lab.r) // 2):
            for m in range(n, order + 1):
                row[m] += row[m - n]
    sign, (num, den) = (-1) ** ((lab.r - 1) // 2), lab.lead.as_integer_ratio()
    return FracSeries._of(den, num + order * den + 1, num, den, [sign * c for c in row])


def sl2_central_charge(l: int) -> Fraction:
    Sl2Label(l, 0)
    return Fraction(3 * l, l + 2)


def sl2_weight(lab: Sl2Label) -> Fraction:
    return Fraction(lab.i * (lab.i + 2), 4 * (lab.l + 2))


def sl2_character(lab: Sl2Label, order: int = 20) -> FracSeries:
    """Specialized character of L(l, i); leading term (i+1) q^(h_i - c/24)."""
    order = index(order)
    k = lab.l + 2
    return _character(
        ((1, 4 * k), 2 * k, True, ((1, lab.i + 1),)),
        euler_parts=((-1, -3),),
        eta_den=8,
        lead=(2 * lab.i * (lab.i + 2) - lab.l, 8 * k),  # h_i - c/24 = (2i(i+2) - l) / 8(l+2)
        order=order,
    )


def branch_model(l: int) -> MinimalModel:
    """Virasoro model appearing next to level-l sl2 in the branching."""
    return MinimalModel(2 * l + 3, l + 2)


def branch_terms(l: int, r: int, parity: str = "both") -> list[BranchTerm]:
    """The summands of the branching of M_r with the given parity: "even", "odd" or "both"."""
    OspLabel(l, r)
    if parity not in ("even", "odd", "both"):
        raise ValueError(f"parity must be 'even', 'odd' or 'both', got {parity!r}")
    terms = [BranchTerm(l, i, r) for i in range(l + 1)]
    return terms if parity == "both" else [t for t in terms if t.parity == parity]


def branch_character(l: int, r: int, parity: str = "both", order: int = 20) -> FracSeries:
    """Sum of sl2 x Virasoro products over branch terms of parity "even", "odd" or "both".

    With parity "both" this recomputes the full M_r character along the
    branching route, independently of osp_character's closed form.
    """
    order = index(order)
    model = branch_model(l)
    # every parity has a term at every level: i = 0 is even, i = 1 odd
    pieces = [sl2_character(term.sl2, order) * model.character(term.vir, order)
              for term in branch_terms(l, r, parity)]
    total = sum(pieces[1:], pieces[0])
    if total.order_exponent <= OspLabel(l, r).lead + order:
        raise RuntimeError("internal truncation bookkeeping error")
    return total


def lowest_space(l: int, r: int) -> tuple[Fraction, int]:
    """(weight, dimension) of the lowest graded piece of M_r."""
    return _lowest_space(branch_terms(l, r))


def _lowest_space(terms: list[BranchTerm]) -> tuple[Fraction, int]:
    """The minimum weight of the branch terms, and the sum of the sl2
    lowest-space dimensions i+1 over the terms that reach it."""
    w = min(t.weight for t in terms)
    return w, sum(t.i + 1 for t in terms if t.weight == w)


def h_alpha_beta(alpha: int, beta: int, t: Fraction) -> Fraction:
    """(1/4)(a^2-1)t - (1/2)(ab-1) + (1/4)(b^2-1)/t, for t an int or a Fraction.

    The general weight behind ``singular --alpha --beta --t``; the library's
    singular weights take the closed form of ``singular_weights`` instead.
    """
    t = Fraction(t, 1)
    if t == 0:
        raise ValueError("t must be nonzero")
    return (
        Fraction(alpha * alpha - 1, 4) * t
        - Fraction(alpha * beta - 1, 2)
        + Fraction(beta * beta - 1, 4) / t
    )


def singular_weights(model: MinimalModel, label: KacLabel) -> tuple[Fraction, Fraction]:
    """Weights of the two singular vectors over the Verma module of the label.

    With h = h_{r,s}, they sit at Kac's levels rs and (q-r)(p-s) (Kac 1979;
    Feigin-Fuchs 1982-84): the pair (h + rs, h + (q-r)(p-s)), which is
    (h_{r,-s}(t), h_{r-2q,-s}(t)) at t = p/q.  A label out of range raises
    the ValueError of ``conformal_weight``.
    """
    h = model.conformal_weight(label)
    return h + label.r * label.s, h + (model.q - label.r) * (model.p - label.s)
