"""Minimal model weight grids and fusion rules.

Fusion of (r,s) labels is the product of the su(2) fusion rules at levels
q-2 (on r) and p-2 (on s), read through the Kac identification
(r,s) ~ (q-r,p-s).

The (10,7) model is the one underlying the coset studied in this package;
the (4,3) Ising grid is shown for comparison.
"""

from cosetchar import KacLabel, MinimalModel

for p, q in [(4, 3), (10, 7)]:
    model = MinimalModel(p, q)
    print(f"model (p,q) = ({p},{q}), central charge {model.central_charge()}")
    for r, row in enumerate(model.kac_table(), start=1):
        print(f"  r={r}: " + "  ".join(str(w) for w in row))
    print()

m = MinimalModel(10, 7)

# The vacuum is the fusion unit; (6,1) is a simple current: fusing with it
# permutes the label grid by r -> 7-r.
print("fusion with the vacuum:", m.fuse(KacLabel(1, 1), KacLabel(2, 3)))
print("fusion with the weight-10 current:")
for lab in [KacLabel(1, 1), KacLabel(2, 3), KacLabel(3, 5)]:
    print(f"   {lab} x (6,1) ->", m.fuse(lab, KacLabel(6, 1)))

# A non-trivial product: two (2,1) modules fuse into the vacuum plus (3,1).
print("(2,1) x (2,1) =", m.fuse(KacLabel(2, 1), KacLabel(2, 1)))

# Characters are exact q-expansions with leading exponent h - c/24.
ch = m.character(KacLabel(2, 1), 6)
print("character of V(2,1):")
for e, c in list(ch.nonzero_terms())[:7]:
    print(f"   {c} * q^({e})")
