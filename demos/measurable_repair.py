"""Repairing a conjugacy that is corrupted on a null set.

A clean window rule conjugates two rotation cocycles; we overwrite its value
at ten sampled points (a finite, hence null, set).  Transporting values from
screened anchors along stable and unstable holonomy legs rebuilds the clean
rule at every corrupted point, path-independently, and the regularity
regression of the rebuilt conjugacy clears the product-exponent floor.

Run:  python3 demos/measurable_repair.py
"""

from cocyclelab import (
    MarkovMeasure,
    SFTSpace,
    SymbolicPoint,
    regularize,
    sample_measure,
    uniform_distance,
)
from cocyclelab.fixtures import (
    conjugated_pair,
    corrupted_conjugacy,
    decaying_rotation_rule,
    rotation_cocycle,
    rotation_conjugacy_rule,
)

space = SFTSpace.full_shift(2)
F = rotation_cocycle(space, 1, seed=9)
psi = decaying_rotation_rule(space, 4)
G = conjugated_pair(F, psi)
x0 = SymbolicPoint.fixed(space, 0)
rule = rotation_conjugacy_rule(psi, x0)
mu = MarkovMeasure.uniform(space)

corrupt_pts = sample_measure(mu, 10, seed=21, depth=20)
phi = corrupted_conjugacy(rule, corrupt_pts, seed=22)
print("injected corruption at 10 points, offsets:")
for pt in corrupt_pts[:3]:
    print("  ", pt, "->", float(uniform_distance(phi.phi_at(pt), rule.phi_at(pt))))
print("   ...")

samples, rep = regularize(phi, F, G, sample_count=60, tol=1e-8, mu=mu, seed=23)
print("\nanchors used:", rep.anchors_used, " excluded by screening:", rep.anchors_excluded)

worst = max(float(uniform_distance(samples[p], rule.phi_at(p))) for p in corrupt_pts)
print("worst distance of repaired values to the clean rule:", worst)
print("path independence (stable-then-unstable vs flipped):",
      rep.path_independence_worst)
print("cohomological residual of the rebuilt conjugacy:", rep.cohomology_worst)

exponent, const = rep.regression
print(f"\nregularity regression: exponent {exponent:.3f}, constant {const:.3f}")
print(f"product-exponent floor beta*gamma - 0.1 = {rep.beta_gamma - 0.1:.3f}")
print("fibre Lipschitz bound over the rebuilt samples:", rep.fiber_lipschitz_max)
