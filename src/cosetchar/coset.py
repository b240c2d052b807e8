"""Coefficientwise verification of the c = 8/35 coset decomposition.

The tensor square of the level-1 affine osp(1|2) vacuum module decomposes
over level-2 osp(1|2) with Virasoro(c = 8/35) multiplicity spaces:

    L(1,0) (x) L(1,0)  =  L(2,0) (x) (V(1,1) + V(6,1))
                        + M_3    (x) (V(3,1) + V(4,1))
                        + M_5    (x) (V(2,1) + V(5,1))

where V(r,s) are the irreducible modules of the (10,7) minimal model.  Every
check here compares exact rational q-expansions of both sides, computed along
independent routes; nothing is floating point and no coefficient is copied
from one side to the other.

``COSET_DECOMPOSITION`` writes this table down once.  Every product row comes
from one builder that walks its pairings: the level-2 factor of each pairing
is the osp character for the plain table, one parity part of it (along the
sl2 x Virasoro branching) for the even/odd refinement, and the Andrews-Gordon
product of its supercharacter for the difference of the parts.  The plain
coefficient table of each order (six product rows, then the tensor-square
row) is built once and cached; every check is a reader of it.  Its entries,
column sums and comparisons are ``int``s, as ``coeff_row`` returns them.
One sum rule compares the column sums of product rows with a target row: the
decomposition applies it after any perturbation, the parity refinement to
each parity, and the singular ladder reads the unperturbed comparisons at
the columns of its candidates.  An order that is not an integer raises
TypeError before the cached table is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import index

from .affine import (
    OspLabel,
    _osp_supercharacter,
    branch_character,
    osp_central_charge,
    osp_character,
    osp_weight,
    singular_weights,
)
from .minimal import KacLabel, MinimalModel
from .series import FracSeries

__all__ = [
    "DecompositionSpec",
    "COSET_DECOMPOSITION",
    "Comparison",
    "VerificationReport",
    "verify_central_charge",
    "verify_decomposition",
    "verify_even_refinement",
    "singular_ladder",
    "run_all",
]

COSET_MODEL = MinimalModel(10, 7)

# leading exponent of the tensor-square character, twice h - c/24 of L(1,0): -1/30
BASE_EXPONENT = 2 * (osp_weight(1, 1) - osp_central_charge(1) / 24)


@dataclass(frozen=True)
class DecompositionSpec:
    """Which Virasoro multiplicity modules pair with which level-2 modules."""

    pairings: tuple[tuple[OspLabel, tuple[KacLabel, ...]], ...]

    def rows(self):
        for osp_lab, vir_labels in self.pairings:
            for vir_lab in vir_labels:
                yield osp_lab, vir_lab


COSET_DECOMPOSITION = DecompositionSpec(
    (
        (OspLabel(2, 1), (KacLabel(1, 1), KacLabel(6, 1))),
        (OspLabel(2, 3), (KacLabel(3, 1), KacLabel(4, 1))),
        (OspLabel(2, 5), (KacLabel(2, 1), KacLabel(5, 1))),
    )
)


@dataclass(frozen=True)
class Comparison:
    exponent: Fraction
    lhs: int | Fraction
    rhs: int | Fraction

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class VerificationReport:
    check: str
    order: int
    rows: tuple[tuple[str, tuple[int | Fraction, ...]], ...]
    comparisons: tuple[Comparison, ...]
    passed: bool = field(init=False)
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "passed", all(c.ok for c in self.comparisons))

    def first_mismatch(self) -> Comparison | None:
        for c in self.comparisons:
            if not c.ok:
                return c
        return None

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "order": self.order,
            "rows": [
                {"label": label, "coeffs": [_json_rat(c) for c in coeffs]}
                for label, coeffs in self.rows
            ],
            "pass": self.passed,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv(self) -> str:
        width = max((len(c) for _, c in self.rows), default=0)
        head = "label," + ",".join(str(k) for k in range(width))
        lines = [head]
        for label, coeffs in self.rows:
            lines.append(
                '"' + label + '",' + ",".join(str(_json_rat(c)) for c in coeffs)
            )
        return "\n".join(lines) + "\n"


def _json_rat(c: int | Fraction):
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _coeff_row(series: FracSeries, order: int) -> tuple[int, ...]:
    return series.coeff_row(BASE_EXPONENT, order + 1)


# -- central charge ---------------------------------------------------------


def verify_central_charge() -> VerificationReport:
    """2 c(level 1) = c(level 2) + c(10,7), exactly."""
    c1, c2 = osp_central_charge(1), osp_central_charge(2)
    cv = COSET_MODEL.central_charge()
    lhs, rhs = 2 * c1, c2 + cv
    return VerificationReport(
        check="central-charge",
        order=0,
        rows=(
            ("2*c[L(1,0)]", (lhs,)),
            ("c[L(2,0)]", (c2,)),
            ("c[Vir(10,7)]", (cv,)),
        ),
        comparisons=(Comparison(Fraction(0), lhs, rhs),),
    )


# -- main decomposition -------------------------------------------------------


def _products(order: int, level2, parity: str = "") -> list[tuple[str, tuple[int, ...]]]:
    """The six labelled coefficient rows of ch[level-2 factor] * ch[V].

    ``level2(osp_lab)`` builds the level-2 factor of one pairing, once; it
    multiplies the Virasoro character of every module paired with it.
    ``parity`` tags the factor in the row label.
    """
    out = []
    for osp_lab, vir_labels in COSET_DECOMPOSITION.pairings:
        factor = level2(osp_lab)
        base = f"M{osp_lab.r}" if osp_lab.r != 1 else "L(2,0)"
        for vir_lab in vir_labels:
            product = factor * COSET_MODEL.character(vir_lab, order)
            out.append((f"ch[{base}{parity}]*ch[V{vir_lab}]", _coeff_row(product, order)))
    return out


@lru_cache(maxsize=8)
def _summand_series(order: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The coefficient table: six product rows, then the row of ch[L(1,0)]^2."""
    if order < 0:
        raise ValueError("order must be >= 0")
    ch = osp_character(OspLabel(1, 1), order)
    products = _products(order, lambda osp_lab: osp_character(osp_lab, order))
    return (*products, ("ch[L(1,0)^2]", _coeff_row(ch * ch, order)))


def _sum_rule(products, target, order: int):
    """Column sums of the product rows, and their comparisons with the target row."""
    sums = tuple(map(sum, zip(*(coeffs for _, coeffs in products))))
    return sums, tuple(Comparison(BASE_EXPONENT + k, target[k], sums[k]) for k in range(order + 1))


def verify_decomposition(
    order: int = 20, perturb: tuple[int, int, int] | None = None
) -> VerificationReport:
    """Tensor-square character against the six-product sum, columnwise.

    Columns are the coefficients of q^(-1/30 + k), k = 0..order.  perturb,
    when given as (row, column, delta), shifts one summand coefficient before
    summing; it exists so that the failure path stays honest and testable.
    A position outside the 6 x (order+1) summand table raises ValueError, a
    non-integer row, column or delta TypeError, both before the table is built.
    """
    order = index(order)
    if perturb is not None:
        row, col, delta = map(index, perturb)
        size = sum(1 for _ in COSET_DECOMPOSITION.rows())
        if not (0 <= row < size and 0 <= col <= order):
            raise ValueError(
                f"perturb position {row}:{col} lies outside the "
                f"{size} x {order + 1} summand table"
            )
    *products, (target_name, target) = _summand_series(order)
    notes = ()
    if perturb is not None:
        # the table is shared through the cache: perturb a copy of the row
        name, coeffs = products[row]
        products[row] = (name, (*coeffs[:col], coeffs[col] + delta, *coeffs[col + 1 :]))
        notes = (f"perturbed row {row} column {col} by {delta:+d}",)
    col_sums, comparisons = _sum_rule(products, target, order)
    return VerificationReport(
        check="decomposition",
        order=order,
        rows=(*products, (target_name, target), ("column sums", col_sums)),
        comparisons=comparisons,
        notes=notes,
    )


# -- parity refinement ---------------------------------------------------------

# The cap pins report bytes: `verify all` and `verify even-refinement` clamp
# their order to it, so lifting it changes their output.
MAX_REFINEMENT_ORDER = 10


def _parity_tables(order: int):
    """Per parity, the six refined product rows, then the refined target row; and the
    even and odd parts of L(1,0), L(2,0), M3 and M5 that they read, each built once."""
    parts = {lab: {p: branch_character(lab.l, lab.r, p, order) for p in ("even", "odd")}
             for lab in (OspLabel(1, 1), *dict(COSET_DECOMPOSITION.pairings))}
    # parity parts of the square: even = e^2 + o^2, odd = 2 e o, where e and o
    # are the parity parts of a single level-1 factor
    e, o = parts[OspLabel(1, 1)].values()
    squares = {"even": e * e + o * o, "odd": (e * o) * 2}
    return {
        parity: _products(order, lambda osp_lab: parts[osp_lab][parity], parity)
        + [(f"ch[L(1,0)^2 {parity}]", _coeff_row(square, order))]
        for parity, square in squares.items()
    }, parts


def verify_even_refinement(order: int = MAX_REFINEMENT_ORDER) -> VerificationReport:
    """Parity-refined expansions against the supercharacter route, and their sum rules.

    The parity parts come from the sl2 x Virasoro branching, their difference
    from the Andrews-Gordon product ``affine._osp_supercharacter``: six rows
    sch[M] * ch[V], then sch[L(1,0)]^2.  Per column of each row, with the plain
    table row: 2 even = plain + diff, 2 odd = plain - diff, even + odd = plain.
    Per parity, the containment identity sum(products) = refined target.  Per
    module L(1,0), L(2,0), M3 and M5, over its own order+1 coefficients from
    h - c/24: even - odd = sch, which sees each sign at every order.
    """
    order = index(order)
    tables, parts = _parity_tables(order)
    schs = {lab: _osp_supercharacter(lab, order) for lab in parts}
    sch = schs[OspLabel(1, 1)]
    diffs = _products(order, schs.__getitem__)
    diffs.append(("sch[L(1,0)]^2", _coeff_row(sch * sch, order)))
    comparisons: list[Comparison] = []
    for *products, (_, target) in tables.values():
        comparisons.extend(_sum_rule(products, target, order)[1])
    exponents = [BASE_EXPONENT + k for k in range(order + 1)]
    for rows in zip(*tables.values(), _summand_series(order), diffs):
        for x, e, o, c, d in zip(exponents, *(coeffs for _, coeffs in rows)):
            pairs = ((2 * e, c + d), (2 * o, c - d), (e + o, c))
            comparisons += [Comparison(x, lhs, rhs) for lhs, rhs in pairs]
    for lab, part in parts.items():
        lead = osp_weight(lab.l, lab.r) - osp_central_charge(lab.l) / 24
        rows = (s.coeff_row(lead, order + 1) for s in (part["even"], part["odd"], schs[lab]))
        comparisons += [Comparison(lead + k, e - o, d) for k, (e, o, d) in enumerate(zip(*rows))]
    return VerificationReport(
        check="even-refinement",
        order=order,
        rows=tuple(row for table in tables.values() for row in table),
        comparisons=tuple(comparisons),
    )


# -- singular-vector bookkeeping ---------------------------------------------


def singular_ladder(order: int = 20) -> VerificationReport:
    """Candidate singular-vector weights and the columns that exclude them.

    For each generator label the two candidate weights are computed from the
    Verma structure; a candidate landing within the computed table is checked
    against the already-verified column identity (an extra singular vector
    would break the exact match at its column).  Candidates beyond the table
    are reported as out of range, not silently passed.
    """
    order = index(order)
    *products, (_, target) = _summand_series(order)
    _, columns = _sum_rule(products, target, order)
    rows: list[tuple[str, tuple[Fraction, ...]]] = []
    comparisons: list[Comparison] = []
    notes: list[str] = []
    # each multiplicity-space generator sits inside the module paired with it in
    # the decomposition; label (1,1) is the coset algebra's own vacuum sector
    pairing = {vir_lab: osp_lab for osp_lab, vir_lab in COSET_DECOMPOSITION.rows()}
    for vir_lab in sorted(pairing):
        w1, w2 = singular_weights(COSET_MODEL, vir_lab)
        rows.append((f"candidates V{vir_lab}", (w1, w2)))
        osp_lab = pairing[vir_lab]
        h_m = osp_weight(osp_lab.l, osp_lab.r)
        for w in (w1, w2):
            column = h_m + w
            if column.denominator != 1:
                raise ValueError("singular candidate off the integer lattice")
            k = int(column)
            if k <= order:
                comparisons.append(columns[k])
            else:
                notes.append(
                    f"V{vir_lab} candidate weight {w} sits at column {k}, beyond order {order}"
                )
    return VerificationReport(
        check="singular-ladder",
        order=order,
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        notes=tuple(notes),
    )


def run_all(
    order: int = 20, perturb: tuple[int, int, int] | None = None
) -> list[VerificationReport]:
    return [
        verify_central_charge(),
        verify_decomposition(order, perturb),
        verify_even_refinement(min(order, MAX_REFINEMENT_ORDER)),
        singular_ladder(order),
    ]
