"""A tour of the PL circle-map layer: exact composition, inversion, metrics.

Run:  python3 demos/metric_playground.py
"""

from fractions import Fraction

from cocyclelab import (
    PLMap,
    compose,
    fb_family,
    holder_constant,
    invert,
    lipschitz_seminorm_diff,
    metric_report,
    uniform_distance,
)

# Rotations compose like angles; everything here is exact rational arithmetic.
quarter = PLMap.rotation(Fraction(1, 4))
half = PLMap.rotation(Fraction(1, 2))
print("rotation(1/4) after rotation(1/2) =", compose(quarter, half).angle)

# The three-slope family: slope 3/2 up to b, then 1/2, then (3-4b)/2.
f = fb_family(Fraction(1, 4))
print("\nthree-slope map at b=1/4")
print("  breakpoints:", f.breaks)
print("  slopes:     ", f.slopes)
print("  f(1/4) =", f(Fraction(1, 4)), " f(1/2) =", f(Fraction(1, 2)))

g = invert(f)
print("  inverse slopes:", g.slopes)
print("  f^-1 o f == id:", compose(g, f) == PLMap.identity())

# Any two members of the family are Lipschitz-seminorm 1 apart: the family is
# an uncountable 1-separated set, so this metric has no countable dense set.
for b1, b2 in ((Fraction(1, 8), Fraction(3, 8)), (Fraction(1, 3), Fraction(1, 5))):
    gap = lipschitz_seminorm_diff(fb_family(b1), fb_family(b2))
    print(f"  seminorm gap between b={b1} and b={b2}: {gap}")

# The metric report bundles the uniform distance, the seminorm of the
# difference, their sum, and the symmetrised version over inverses.
rep = metric_report(f, fb_family(Fraction(1, 3)))
print("\nmetric report f_{1/4} vs f_{1/3}:")
print("  d_inf =", float(rep.d_inf))
print("  lip seminorm of difference =", float(rep.lip_seminorm_diff))
print("  d_1 =", float(rep.d_1), " d_max =", float(rep.d_max))

print("\nLipschitz constant of f:", f.max_slope)
print("Holder constant of f at exponent 1/2 (certified):",
      holder_constant(f, 0.5, tol=1e-5))

# Uniform distance is computed exactly on the merged breakpoint set.
print("\nd_inf(identity, rotation 0.1) =", uniform_distance(PLMap.identity(), PLMap.rotation(Fraction(1, 10))))
