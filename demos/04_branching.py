"""Branching of affine osp(1|2) modules into sl2 x Virasoro pieces.

Each module M_r splits into an even and an odd part; summing the two parity
characters must reproduce the closed-form character, which exercises two
completely different formulas against each other.
"""

from cosetchar import (
    OspLabel,
    branch_character,
    branch_terms,
    lowest_space,
    osp_central_charge,
    osp_character,
    osp_modules,
    osp_weight,
)
from cosetchar.series import equal_through

for l in (1, 2):
    print(f"level {l}: modules", [f"M_{m.r}" for m in osp_modules(l)])
    for mod in osp_modules(l):
        weight, dim = lowest_space(l, mod.r)
        print(f"  M_{mod.r}: lowest weight {weight}, lowest space dimension {dim}")
        for term in branch_terms(l, mod.r):
            print(
                f"     L({l},{term.sl2.i}) x V({term.vir.r},{term.vir.s})"
                f"  [{term.parity}]  weight {term.weight}"
            )
    print()

# parity completeness at level 2, through 15 levels above the leading term
for r in (1, 3, 5):
    total = branch_character(2, r, "both", 15)
    closed = osp_character(OspLabel(2, r), 15)
    top = osp_weight(2, r) - osp_central_charge(2) / 24 + 15
    print(f"level 2, M_{r}: branching route == closed form:", equal_through(total, closed, top))

# the even part of the level-1 vacuum, first few coefficients
even = branch_character(1, 1, "even", 8)
print("\neven part of the level-1 vacuum module:")
for e, c in list(even.nonzero_terms())[:6]:
    print(f"   {c} * q^({e})")
