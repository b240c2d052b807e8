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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .affine import (
    OspLabel,
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
    "coefficient_table",
    "verify_even_refinement",
    "singular_ladder",
    "run_all",
]

COSET_MODEL = MinimalModel(10, 7)

# leading exponent of the tensor-square character: -c/24 with c = 4/5
BASE_EXPONENT = Fraction(-1, 30)


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
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class VerificationReport:
    check: str
    order: int
    rows: tuple[tuple[str, tuple[Fraction, ...]], ...]
    comparisons: tuple[Comparison, ...]
    passed: bool
    notes: tuple[str, ...] = field(default=())

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

    def dumps(self, indent=None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    def to_csv(self) -> str:
        width = max((len(c) for _, c in self.rows), default=0)
        head = "label," + ",".join(str(k) for k in range(width))
        lines = [head]
        for label, coeffs in self.rows:
            lines.append(
                '"' + label + '",' + ",".join(str(_json_rat(c)) for c in coeffs)
            )
        return "\n".join(lines) + "\n"


def _json_rat(c: Fraction):
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _coeff_row(series: FracSeries, order: int) -> tuple[Fraction, ...]:
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
        passed=lhs == rhs,
    )


# -- main decomposition -------------------------------------------------------


@lru_cache(maxsize=8)
def _summand_series(order: int) -> tuple[tuple[str, FracSeries], ...]:
    out = []
    for osp_lab, vir_labels in COSET_DECOMPOSITION.pairings:
        base = f"M{osp_lab.r}" if osp_lab.r != 1 else "L(2,0)"
        osp = osp_character(osp_lab, order)
        for vir_lab in vir_labels:
            out.append((f"ch[{base}]*ch[V{vir_lab}]", osp * COSET_MODEL.character(vir_lab, order)))
    return tuple(out)


@lru_cache(maxsize=8)
def _target_series(order: int) -> FracSeries:
    ch = osp_character(OspLabel(1, 1), order)
    return ch * ch


def verify_decomposition(
    order: int = 20, perturb: tuple[int, int, int] | None = None
) -> VerificationReport:
    """Tensor-square character against the six-product sum, columnwise.

    Columns are the coefficients of q^(-1/30 + k), k = 0..order.  perturb,
    when given as (row, column, delta), shifts one summand coefficient before
    summing; it exists so that the failure path stays honest and testable.
    A position outside the 6 x (order+1) summand table raises ValueError.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    summands = [(name, list(_coeff_row(s, order))) for name, s in _summand_series(order)]
    target = _coeff_row(_target_series(order), order)
    notes = ()
    if perturb is not None:
        row, col, delta = perturb
        if not (0 <= row < len(summands) and 0 <= col <= order):
            raise ValueError(
                f"perturb position {row}:{col} lies outside the "
                f"{len(summands)} x {order + 1} summand table"
            )
        summands[row][1][col] += delta
        notes = (f"perturbed row {row} column {col} by {delta:+d}",)
    col_sums = tuple(sum(vals[k] for _, vals in summands) for k in range(order + 1))
    comparisons = tuple(
        Comparison(BASE_EXPONENT + k, target[k], col_sums[k]) for k in range(order + 1)
    )
    rows = tuple((name, tuple(vals)) for name, vals in summands) + (
        ("ch[L(1,0)^2]", target),
        ("column sums", col_sums),
    )
    return VerificationReport(
        check="decomposition",
        order=order,
        rows=rows,
        comparisons=comparisons,
        passed=all(c.ok for c in comparisons),
        notes=notes,
    )


def coefficient_table(order: int = 20) -> list[list[int]]:
    """Integer coefficient matrix: six summand rows, target row, column sums."""
    report = verify_decomposition(order)
    out = []
    for _, coeffs in report.rows:
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError("non-integer coefficient in normalized table")
        out.append([int(c) for c in coeffs])
    return out


# -- parity refinement ---------------------------------------------------------

# Reference expansions of the parity-refined products, coefficients of
# q^(-1/30 + k) for k = 0..10.  The final pair are the parity parts of the
# tensor-square character itself.
_EVEN_REFERENCE: dict[str, list[int]] = {
    "ch[L(2,0)even]*ch[V(1,1)]": [1, 3, 11, 26, 66, 148, 317, 648, 1281, 2438, 4533],
    "ch[L(2,0)even]*ch[V(6,1)]": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    "ch[M3even]*ch[V(3,1)]": [0, 0, 1, 8, 30, 91, 237, 567, 1263, 2670, 5397],
    "ch[M3even]*ch[V(4,1)]": [0, 0, 0, 0, 1, 8, 30, 92, 244, 589, 1325],
    "ch[M5even]*ch[V(2,1)]": [0, 3, 11, 34, 94, 231, 523, 1126, 2309, 4556, 8707],
    "ch[M5even]*ch[V(5,1)]": [0, 0, 0, 0, 0, 0, 0, 3, 11, 37, 105],
    "ch[L(1,0)^2 even]": [1, 6, 23, 68, 191, 478, 1107, 2436, 5108, 10290, 20068],
}
_ODD_REFERENCE: dict[str, list[int]] = {
    "ch[L(2,0)odd]*ch[V(1,1)]": [0, 2, 8, 22, 58, 136, 296, 618, 1232, 2368, 4426],
    "ch[L(2,0)odd]*ch[V(6,1)]": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    "ch[M3odd]*ch[V(3,1)]": [0, 0, 2, 10, 34, 98, 250, 588, 1298, 2724, 5482],
    "ch[M3odd]*ch[V(4,1)]": [0, 0, 0, 0, 2, 10, 34, 100, 258, 612, 1364],
    "ch[M5odd]*ch[V(2,1)]": [0, 2, 10, 32, 90, 224, 512, 1108, 2282, 4514, 8644],
    "ch[M5odd]*ch[V(5,1)]": [0, 0, 0, 0, 0, 0, 0, 2, 10, 34, 100],
    "ch[L(1,0)^2 odd]": [0, 4, 20, 64, 184, 468, 1092, 2416, 5080, 10252, 20016],
}

MAX_REFINEMENT_ORDER = 10


def _parity_rows(order: int, parity: str):
    """Six refined products and the refined target for one parity."""
    products = []
    for osp_lab, vir_lab in COSET_DECOMPOSITION.rows():
        part = branch_character(2, osp_lab.r, parity, order)
        prod = part * COSET_MODEL.character(vir_lab, order)
        base = f"M{osp_lab.r}" if osp_lab.r != 1 else "L(2,0)"
        products.append((f"ch[{base}{parity}]*ch[V{vir_lab}]", _coeff_row(prod, order)))
    # parity parts of the square: even = e^2 + o^2, odd = 2 e o, where e and o
    # are the parity parts of a single level-1 factor
    e = branch_character(1, 1, "even", order)
    o = branch_character(1, 1, "odd", order)
    square = e * e + o * o if parity == "even" else (e * o).scaled(2)
    target = (f"ch[L(1,0)^2 {parity}]", _coeff_row(square, order))
    return products, target


def verify_even_refinement(order: int = MAX_REFINEMENT_ORDER) -> VerificationReport:
    """Parity-refined expansions against reference data and their sum rules.

    Per parity: each of the six products and the refined target against the
    stored reference coefficients (available through q^10), the containment
    identity sum(products) = refined target, and the recombination
    even + odd = unrefined column, row by row.
    """
    if not 0 <= order <= MAX_REFINEMENT_ORDER:
        raise ValueError(f"order must lie in 0..{MAX_REFINEMENT_ORDER}")
    reference = {**_EVEN_REFERENCE, **_ODD_REFERENCE}
    comparisons: list[Comparison] = []
    rows: list[tuple[str, tuple[Fraction, ...]]] = []
    by_parity = {}
    for parity in ("even", "odd"):
        products, target = _parity_rows(order, parity)
        by_parity[parity] = products + [target]
        rows.extend(products)
        rows.append(target)
        # (a) reference coefficients
        for name, coeffs in products + [target]:
            for k, c in enumerate(coeffs):
                comparisons.append(
                    Comparison(BASE_EXPONENT + k, c, Fraction(reference[name][k]))
                )
        # (b) containment: the six products of one parity sum to the parity target
        for k in range(order + 1):
            total = sum(coeffs[k] for _, coeffs in products)
            comparisons.append(Comparison(BASE_EXPONENT + k, target[1][k], total))
    # (c) even + odd recombine to the unrefined rows, in matching order
    unrefined = verify_decomposition(order)
    plain_rows = unrefined.rows[:7]  # six products then the target
    for (_, even_coeffs), (_, odd_coeffs), (_, plain_coeffs) in zip(
        by_parity["even"], by_parity["odd"], plain_rows
    ):
        for k in range(order + 1):
            comparisons.append(
                Comparison(BASE_EXPONENT + k, even_coeffs[k] + odd_coeffs[k], plain_coeffs[k])
            )
    return VerificationReport(
        check="even-refinement",
        order=order,
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        passed=all(c.ok for c in comparisons),
    )


# -- singular-vector bookkeeping ---------------------------------------------

# each multiplicity-space generator sits inside the module paired with it in
# the decomposition; label (1,1) is the coset algebra's own vacuum sector
_LADDER_PAIRING = {
    KacLabel(1, 1): OspLabel(2, 1),
    KacLabel(6, 1): OspLabel(2, 1),
    KacLabel(3, 1): OspLabel(2, 3),
    KacLabel(4, 1): OspLabel(2, 3),
    KacLabel(2, 1): OspLabel(2, 5),
    KacLabel(5, 1): OspLabel(2, 5),
}


def singular_ladder(order: int = 20) -> VerificationReport:
    """Candidate singular-vector weights and the columns that exclude them.

    For each generator label the two candidate weights are computed from the
    Verma structure; a candidate landing within the computed table is checked
    against the already-verified column identity (an extra singular vector
    would break the exact match at its column).  Candidates beyond the table
    are reported as out of range, not silently passed.
    """
    decomposition = verify_decomposition(order)
    table = dict(decomposition.rows)
    target = table["ch[L(1,0)^2]"]
    sums = table["column sums"]
    rows: list[tuple[str, tuple[Fraction, ...]]] = []
    comparisons: list[Comparison] = []
    notes: list[str] = []
    for vir_lab in (KacLabel(1, 1), KacLabel(2, 1), KacLabel(3, 1),
                    KacLabel(4, 1), KacLabel(5, 1), KacLabel(6, 1)):
        w1, w2 = singular_weights(COSET_MODEL, vir_lab)
        rows.append((f"candidates V{vir_lab}", (w1, w2)))
        osp_lab = _LADDER_PAIRING[vir_lab]
        h_m = osp_weight(osp_lab.l, osp_lab.r)
        for w in (w1, w2):
            exponent = h_m + w + BASE_EXPONENT
            column = exponent - BASE_EXPONENT
            if column.denominator != 1:
                raise ValueError("singular candidate off the integer lattice")
            k = int(column)
            if k <= order:
                comparisons.append(Comparison(BASE_EXPONENT + k, target[k], sums[k]))
            else:
                notes.append(
                    f"V{vir_lab} candidate weight {w} sits at column {k}, beyond order {order}"
                )
    return VerificationReport(
        check="singular-ladder",
        order=order,
        rows=tuple(rows),
        comparisons=tuple(comparisons),
        passed=all(c.ok for c in comparisons),
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
