"""Symbolic points, pseudo-orbits and exact orbit closing.

Every point is stored with explicit periodic tails, so distances are exact
powers of rho and the shadowing inequality can be verified in integer
arithmetic.

Run:  python3 demos/closing_and_shadowing.py
"""

from cocyclelab import (
    PseudoOrbit,
    SFTSpace,
    SymbolicPoint,
    closing_point,
    distance,
    distance_exponent,
    verify_closing_bound,
)
from cocyclelab.errors import InadmissibleLoop

space = SFTSpace.full_shift(2)
x0 = SymbolicPoint.fixed(space, 0)
y = SymbolicPoint.make(space, (0,), (1,), (0,), 0)  # single 1 at coordinate 0
print("y =", y)
print("d(y, x0) =", distance(y, x0))

# The loop sigma^-n(y) ... sigma^n(y) is a pseudo-orbit whose single gap is
# the reunion distance d(sigma^n y, sigma^-n y).
po = PseudoOrbit.closing_loop(y, 3)
print("\npseudo-orbit of length", len(po.points), "gap eps =", po.eps)

# Closing replaces it by a genuine periodic orbit through the same window.
z = closing_point(y, 3)
print("closing point  z =", z, " (repeats y_-3..y_2, period 6)")
print("z window -3..8:", tuple(z.window(-3, 9)))

# The shadowing bound, checked as an inequality of integer exponents:
# the shifted pair (sigma^{j-n} y, sigma^{j-n} z) agrees to radius at least
# min(j, 2n-j) + M where rho^-M is the reunion gap.
rows, ok = verify_closing_bound(y, 3)
print("\n j | agreement radius | required")
for j, obs, req in rows:
    print(f" {j:2d} | {'inf' if obs is None else obs:>16} | {req}")
print("bound holds everywhere:", ok)

# Over the golden-mean shift the wrap pair can be forbidden, in which case
# closing refuses rather than emitting an inadmissible word.
golden = SFTSpace.golden_mean()
w = SymbolicPoint.make(golden, (0,), (1, 0, 0, 1), (0,), -2)
try:
    closing_point(w, 2)
except InadmissibleLoop as e:
    print("\ngolden-mean example refused as expected:", e)

# y and x0 share their forward tail, so the disagreement recedes into the
# past and the forward images converge geometrically.
for k in range(4):
    print(f"d(sigma^{k} y, sigma^{k} x0) exponent:",
          distance_exponent(y.shift(k), x0))
