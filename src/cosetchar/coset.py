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

``COSET_DECOMPOSITION`` writes this table down once, as a tuple of
(level-2 label, Virasoro labels) pairings over ``extension.MODEL``, the one
(10,7) model of the package.  Every product row comes from one builder that
walks its pairings: the level-2 factor of each pairing
is the osp character for the plain table, one parity part of it (along the
sl2 x Virasoro branching) for the even/odd refinement, and the Andrews-Gordon
product of its supercharacter for the difference of the parts.  The plain
coefficient table of each order (six product rows, then the tensor-square
row) is built once and cached; every check is a reader of it.  Its entries
and column sums are ``int``s, as ``coeff_row`` returns them.  One sum rule
sets the column sums of product rows against a target row: the decomposition
applies it after any perturbation and the parity refinement to each parity.
The singular ladder reads the unperturbed decomposition report, taking its
target and sum at the columns of its candidates.  An order that is not an
integer raises TypeError before the cached table is read.

A ``VerificationReport`` renders itself only as JSON (``to_json_dict``,
``dumps``); the command line builds its text and CSV forms.  It stores what
it compares as ``checks``: each a ``(lead, lhs row, rhs row)`` triple whose
column k sits at q^(lead + k), sharing its rows with ``rows`` where they are
the same values.  Its verdict ``passed`` is equality of the two rows of every
check; ``comparisons`` and ``first_mismatch`` build ``Comparison`` objects
from the checks only when read.  A non-integral value goes to JSON in the
``N/D`` form of ``series._rat``.  A perturbation with a delta of 0 injects no
fault and is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, index, sub

from .affine import (
    OspLabel,
    _osp_supercharacter,
    branch_character,
    osp_central_charge,
    osp_character,
    osp_weight,
    singular_weights,
)
from .extension import MODEL
from .minimal import KacLabel
from .series import FracSeries, _rat

__all__ = [
    "COSET_DECOMPOSITION",
    "Comparison",
    "VerificationReport",
    "verify_central_charge",
    "verify_decomposition",
    "verify_even_refinement",
    "singular_ladder",
    "run_all",
]

# leading exponent of the tensor-square character, twice h - c/24 of L(1,0): -1/30
BASE_EXPONENT = 2 * OspLabel(1, 1).lead


class _Pairings(tuple):
    """A plain tuple; ``pairings``, the tuple itself, is the name perfbench's census reads."""

    pairings = property(lambda self: self)


# which Virasoro multiplicity modules pair with which level-2 module
COSET_DECOMPOSITION = _Pairings((
    (OspLabel(2, 1), (KacLabel(1, 1), KacLabel(6, 1))),
    (OspLabel(2, 3), (KacLabel(3, 1), KacLabel(4, 1))),
    (OspLabel(2, 5), (KacLabel(2, 1), KacLabel(5, 1))),
))
# the extension's (10,7) model under the name perfbench's census reads
COSET_MODEL = MODEL


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
    # (lead, lhs row, rhs row): column k of both rows sits at q^(lead + k)
    checks: tuple[tuple[Fraction, tuple, tuple], ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """True iff both rows of every check are equal."""
        return all(lhs == rhs for _, lhs, rhs in self.checks)

    @property
    def comparisons(self) -> tuple[Comparison, ...]:
        """One comparison per column of every check, in check order, built on read."""
        return tuple(Comparison(lead + k, a, b) for lead, lhs, rhs in self.checks
                     for k, (a, b) in enumerate(zip(lhs, rhs)))

    def first_mismatch(self) -> Comparison | None:
        return next((c for c in self.comparisons if not c.ok), None)

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


def _json_rat(c: int | Fraction):
    return int(c) if c.denominator == 1 else _rat(c)


def _coeff_row(series: FracSeries, order: int) -> tuple[int, ...]:
    return series.coeff_row(BASE_EXPONENT, order + 1)


# -- central charge ---------------------------------------------------------


def verify_central_charge() -> VerificationReport:
    """2 c(level 1) = c(level 2) + c(10,7), exactly."""
    c1, c2 = osp_central_charge(1), osp_central_charge(2)
    cv = MODEL.central_charge()
    lhs, rhs = 2 * c1, c2 + cv
    return VerificationReport(
        check="central-charge",
        order=0,
        rows=(
            ("2*c[L(1,0)]", (lhs,)),
            ("c[L(2,0)]", (c2,)),
            ("c[Vir(10,7)]", (cv,)),
        ),
        checks=((Fraction(0), (lhs,), (rhs,)),),
    )


# -- main decomposition -------------------------------------------------------


def _products(order: int, level2, parity: str = "") -> list[tuple[str, tuple[int, ...]]]:
    """The six labelled coefficient rows of ch[level-2 factor] * ch[V].

    ``level2(osp_lab)`` builds the level-2 factor of one pairing, once; it
    multiplies the Virasoro character of every module paired with it.
    ``parity`` tags the factor in the row label.
    """
    out = []
    for osp_lab, vir_labels in COSET_DECOMPOSITION:
        factor = level2(osp_lab)
        base = f"M{osp_lab.r}" if osp_lab.r != 1 else "L(2,0)"
        for vir_lab in vir_labels:
            product = factor * MODEL.character(vir_lab, order)
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


def _column_sums(products) -> tuple[int, ...]:
    """The column sums of the labelled product rows."""
    return tuple(map(sum, zip(*(coeffs for _, coeffs in products))))


def verify_decomposition(
    order: int = 20, perturb: tuple[int, int, int] | None = None
) -> VerificationReport:
    """Tensor-square character against the six-product sum, columnwise.

    Columns are the coefficients of q^(-1/30 + k), k = 0..order.  perturb,
    when given as (row, column, delta), shifts one summand coefficient before
    summing; it exists so that the failure path stays honest and testable.
    A position outside the 6 x (order+1) summand table or a delta of 0 (no
    fault) raises ValueError, a non-integer row, column or delta TypeError,
    all before the table is built.
    """
    order = index(order)
    if perturb is not None:
        row, col, delta = map(index, perturb)
        size = sum(len(labs) for _, labs in COSET_DECOMPOSITION)
        if not (0 <= row < size and 0 <= col <= order):
            raise ValueError(
                f"perturb position {row}:{col} lies outside the "
                f"{size} x {order + 1} summand table"
            )
        if not delta:
            raise ValueError("perturb delta 0 injects no fault")
    *products, (target_name, target) = _summand_series(order)
    notes = ()
    if perturb is not None:
        # the table is shared through the cache: perturb a copy of the row
        name, coeffs = products[row]
        products[row] = (name, (*coeffs[:col], coeffs[col] + delta, *coeffs[col + 1 :]))
        notes = (f"perturbed row {row} column {col} by {delta:+d}",)
    col_sums = _column_sums(products)
    return VerificationReport(
        check="decomposition",
        order=order,
        rows=(*products, (target_name, target), ("column sums", col_sums)),
        checks=((BASE_EXPONENT, target, col_sums),),
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
             for lab in (OspLabel(1, 1), *dict(COSET_DECOMPOSITION))}
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
    checks = [(BASE_EXPONENT, target, _column_sums(products))
              for *products, (_, target) in tables.values()]
    for rows in zip(*tables.values(), _summand_series(order), diffs):
        e, o, c, d = (coeffs for _, coeffs in rows)
        checks += [(BASE_EXPONENT, tuple(map(add, e, e)), tuple(map(add, c, d))),
                   (BASE_EXPONENT, tuple(map(add, o, o)), tuple(map(sub, c, d))),
                   (BASE_EXPONENT, tuple(map(add, e, o)), c)]
    for lab, part in parts.items():
        lead = lab.lead
        e, o, d = (s.coeff_row(lead, order + 1) for s in (part["even"], part["odd"], schs[lab]))
        checks.append((lead, tuple(map(sub, e, o)), d))
    return VerificationReport(
        check="even-refinement",
        order=order,
        rows=tuple(row for table in tables.values() for row in table),
        checks=tuple(checks),
    )


# -- singular-vector bookkeeping ---------------------------------------------


def singular_ladder(order: int = 20) -> VerificationReport:
    """Candidate singular-vector weights and the columns that exclude them.

    A reader of the decomposition report: the two candidate weights of each
    generator label sit at Kac's levels over its Verma module
    (``affine.singular_weights``), and a candidate landing within the table
    checks the target and the column sum of the unperturbed
    ``verify_decomposition(order)`` at its column (an extra singular vector
    would break the exact match there).  Candidates beyond the table are
    reported as out of range, not silently passed.  A candidate off the
    integer lattice breaks the package's own bookkeeping and raises
    RuntimeError.
    """
    decomposition = verify_decomposition(order)
    order, ((lead, target, sums),) = decomposition.order, decomposition.checks
    rows, checks, notes = [], [], []
    # each multiplicity-space generator sits inside the module paired with it in
    # the decomposition, at that module's weight h_m; label (1,1) is the coset
    # algebra's own vacuum sector
    paired = {vir: osp_weight(osp.l, osp.r) for osp, labs in COSET_DECOMPOSITION for vir in labs}
    for vir_lab, h_m in sorted(paired.items()):
        weights = singular_weights(MODEL, vir_lab)
        rows.append((f"candidates V{vir_lab}", weights))
        for w in weights:
            column = h_m + w
            if column.denominator != 1:
                raise RuntimeError("singular candidate off the integer lattice")
            k = int(column)
            if k <= order:
                checks.append((lead + k, (target[k],), (sums[k],)))
            else:
                notes.append(
                    f"V{vir_lab} candidate weight {w} sits at column {k}, beyond order {order}"
                )
    return VerificationReport(
        check="singular-ladder",
        order=order,
        rows=tuple(rows),
        checks=tuple(checks),
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
