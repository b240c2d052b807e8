"""The headline identity: the level-1 osp(1|2) tensor square decomposes over
level 2 with Virasoro(c = 8/35) multiplicity spaces.

Both sides are computed independently and compared coefficient by
coefficient; the table below is printed from the verification report.
"""

from cosetchar import verify_central_charge, verify_decomposition, singular_ladder

cc = verify_central_charge()
print("central charges:", " ; ".join(f"{label} = {vals[0]}" for label, vals in cc.rows))
print("identity holds:", cc.passed)
print()

report = verify_decomposition(12)
print(f"decomposition check to order {report.order}: {'PASS' if report.passed else 'FAIL'}")
for label, coeffs in report.rows:
    cells = " ".join(f"{c:>6d}" for c in coeffs)
    print(f"  {label:<24s} {cells}")
print()

# Perturbing any single summand coefficient must break the match.
broken = verify_decomposition(12, perturb=(2, 4, 1))
bad = broken.first_mismatch()
print("after a +1 perturbation:", "PASS" if broken.passed else
      f"FAIL at q^({bad.exponent}): {bad.lhs} != {bad.rhs}")
print()

# The singular-vector bookkeeping: candidate weights where an extra singular
# vector would have to show up, and the columns that rule it out.
ladder = singular_ladder(20)
print("singular-vector candidates (weight pairs):")
for label, (w1, w2) in ladder.rows:
    print(f"  {label}: {w1}, {w2}")
print("in-range columns all balance:", ladder.passed)
