"""From matching periodic data to an explicit conjugacy.

Two rotation-valued cocycles related by a window rule have identical return
compositions over every periodic orbit; the transfer map rebuilt from
holonomy quotients recovers the rule exactly, and a perturbed pair is
rejected.

Run:  python3 demos/periodic_data_transfer.py
"""

from fractions import Fraction

from cocyclelab import (
    SFTSpace,
    SymbolicPoint,
    build_transfer,
    check_periodic_data,
    uniform_distance,
    verify_cohomology,
    verify_lemma1,
)
from cocyclelab.fixtures import (
    conjugated_pair,
    decaying_rotation_rule,
    perturb_one_entry,
    rotation_cocycle,
    rotation_conjugacy_rule,
)

space = SFTSpace.full_shift(2)
F = rotation_cocycle(space, 1, seed=3)
psi = decaying_rotation_rule(space, 5)
G = conjugated_pair(F, psi)
x0 = SymbolicPoint.fixed(space, 0)

pd = check_periodic_data(F, G, 6)
print("periodic data up to period 6: worst residual =", pd.worst,
      f"({len(pd.rows)} orbit checks, exact rational)")

T = build_transfer(F, G, x0, core_len=5, tol=1e-10)
print("transfer map sampled on", len(T.class_points), "splice-class points")
print("construction residual:", T.cohomology.worst)

truth = rotation_conjugacy_rule(psi, x0)
worst = max(float(uniform_distance(T.samples[y], truth.phi_at(y))) for y in T.class_points)
print("distance to the generating window rule:", worst)

coh = verify_cohomology(T, tol=1e-6)
lem = verify_lemma1(T, points=list(T.class_points)[::8], tol=1e-6)
print("cohomological residual:", coh.worst)
print("forward/backward agreement residual:", lem.worst)

exponent, const = T.holder_estimate  # regressed over the class on this first read
print(f"Holder regression: exponent {exponent:.3f}, constant {const:.3f}")
print("exponent budget (product of holonomy budgets):", round(T.beta_budget, 3))

# Negative control: nudging one table entry by a hundredth of a turn breaks
# the periodic data, and the checker says so.
bad = perturb_one_entry(F, Fraction(1, 100))
rep = check_periodic_data(bad, G, 6)
print("\nperturbed pair: worst periodic residual =", float(rep.worst),
      "-> coincide:", rep.passed)

# The same construction goes through over the golden-mean shift with a
# period-2 base point (the machinery runs through the time-2 cocycles).
golden = SFTSpace.golden_mean()
F2 = rotation_cocycle(golden, 1, seed=5)
psi2 = decaying_rotation_rule(golden, 4)
G2 = conjugated_pair(F2, psi2)
base = SymbolicPoint.periodic(golden, (0, 1))
T2 = build_transfer(F2, G2, base, core_len=5, tol=1e-10)
print("\nperiod-2 base over the golden-mean shift:",
      len(T2.class_points), "points, residual", verify_cohomology(T2).worst)
