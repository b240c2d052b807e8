"""Tour of the exact q-series kernel: Euler products and theta sums.

Coefficients are exact integers and exponents exact rationals; a series knows
the exponent below which it is trustworthy and refuses to answer beyond it.
"""

from fractions import Fraction

from cosetchar import euler_product, monomial, theta_null, weighted_theta

# The generating function of partition numbers is the Euler product
# prod (1 - q^n)^(-1).
partitions = euler_product(-1, -1, 20)
print("partition numbers p(0..12):")
print("  ", [partitions.coeff(n) for n in range(13)])

# With exponent +1 the product sparsifies into the pentagonal-number pattern.
pentagonal = euler_product(-1, 1, 26)
print("prod (1 - q^n) expands as:")
print("  ", " + ".join(f"{c}q^{e}" for e, c in pentagonal.nonzero_terms()))

# Theta null sums have fractional exponents; the lattice denominator adapts.
theta = theta_null(70, 53, 50)
print("first terms of the (70, 53) theta sum:")
for e, c in list(theta.nonzero_terms())[:3]:
    print(f"   {c} * q^({e})")

# Weighted theta sums carry a linear coefficient; they are the numerators of
# the affine osp(1|2) characters.
wt = weighted_theta(14, 1, Fraction(7, 2), 30)
print("weighted (14, 1) theta sum:")
for e, c in list(wt.nonzero_terms())[:4]:
    print(f"   {c} * q^({e})")

# Series multiply exactly; a prefactor shifts the exponent lattice.
eta_shift = monomial(1, -1, 24, 600)
e, c = (theta * eta_shift * euler_product(-1, -1, 24)).leading_term()
print(f"theta/eta-style product leading term: {c} * q^({e})")

# Asking beyond the truncation bound is an error, never a silent zero.
try:
    partitions.coeff(21)
except ValueError as exc:
    print("past the bound:", exc)
