"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np

from cocyclelab import (
    MarkovMeasure,
    SFTSpace,
    SymbolicPoint,
    build_transfer,
    check_domination,
    check_periodic_data,
    compose,
    estimate_holder,
    fb_family,
    holder_const_cocycle,
    holonomy_convergence_table,
    homoclinic_points,
    lipschitz_seminorm_diff,
    regularize,
    resample_past,
    sample_measure,
    stable_holonomy,
    uniform_distance,
    verify_cohomology,
    verify_closing_bound,
    verify_holonomy_axioms,
    verify_lemma1,
)
from cocyclelab.errors import InadmissibleLoop
from cocyclelab.experiments import ExperimentConfig, run
from cocyclelab.fixtures import (
    conjugated_pair,
    corrupted_conjugacy,
    decaying_rotation_rule,
    perturb_one_entry,
    pl_dominated_cocycle,
    random_plmap,
    rotation_cocycle,
    rotation_conjugacy_rule,
    staircase_cocycle,
)
from cocyclelab.transfer import holder_regression


def report(num, ok, text):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_metric_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_float = 0.0
    exact_ok = True
    for i in range(1000):
        exact = i % 2 == 0
        f, g, h = (random_plmap(rng, int(rng.integers(2, 5)), exact) for _ in range(3))
        lhs = uniform_distance(compose(g, f), compose(h, f))
        rhs = uniform_distance(g, h)
        left = uniform_distance(compose(f, g), compose(f, h))
        chain = compose(g, f).max_slope
        if exact:
            exact_ok &= lhs == rhs
            exact_ok &= left <= f.max_slope * rhs
            exact_ok &= chain <= g.max_slope * f.max_slope
        else:
            worst_float = max(worst_float, abs(float(lhs - rhs)))
            worst_float = max(worst_float, float(left - f.max_slope * rhs))
            worst_float = max(worst_float, float(chain - g.max_slope * f.max_slope))
    elapsed = time.perf_counter() - start
    ok = exact_ok and worst_float <= 1e-12 and elapsed < 10.0
    report(1, ok, f"metric algebra on 1000 triples: float worst {worst_float:.2e}, "
                  f"exact {'ok' if exact_ok else 'BAD'}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_nonseparability():
    rng = np.random.default_rng(1002)
    half = Fraction(1, 2)
    checked = 0
    ok = True
    while checked < 50:
        b1 = Fraction(int(rng.integers(1, 5000)), 10000)
        b2 = Fraction(int(rng.integers(1, 5000)), 10000)
        if b1 == b2:
            continue
        gap = lipschitz_seminorm_diff(fb_family(b1), fb_family(b2))
        ok &= isinstance(gap, Fraction) and gap >= half
        checked += 1
    report(2, ok, "three-slope family: seminorm gap >= 1/2 exactly on 50 rational pairs")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_closing_lemma():
    rng = np.random.default_rng(1003)
    ok = True
    raised = 0
    checked = 0
    for space, core in ((SFTSpace.full_shift(2), 4), (SFTSpace.golden_mean(), 6)):
        x0 = SymbolicPoint.fixed(space, 0)
        pts = homoclinic_points(x0, core)
        idx = rng.choice(len(pts), size=min(100, len(pts)), replace=False)
        for i in sorted(idx):
            y = pts[i]
            for n in range(2, 9):
                try:
                    _, good = verify_closing_bound(y, n)
                except InadmissibleLoop:
                    raised += 1
                    continue
                checked += 1
                ok &= good
    ok &= checked >= 1000 and raised >= 1
    report(3, ok, f"closing bound holds exactly in {checked} cases; "
                  f"{raised} inadmissible loops raised")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_holonomy_convergence():
    start = time.perf_counter()
    theta = 0.4
    coc, x, y = staircase_cocycle(26, theta)
    dom = check_domination(coc)
    table = holonomy_convergence_table(coc, x, y, 24)
    target = -theta * math.log(2.0)
    slope_ok = abs(table.slope - target) <= 0.15 * abs(target)

    c = pl_dominated_cocycle(SFTSpace.full_shift(2), 1, theta, seed=1004)
    x0 = SymbolicPoint.fixed(c.space, 0)
    pts = homoclinic_points(x0, 3)
    triples = [(pts[1], pts[8], pts[17]), (pts[2], pts[5], pts[23]), (pts[0], pts[11], pts[30])]
    rep = verify_holonomy_axioms(c, triples, tol=1e-6)
    elapsed = time.perf_counter() - start
    ok = (
        slope_ok
        and abs(dom.theta_s - theta) < 0.02
        and rep.max_composition_residual <= 1e-6
        and rep.max_equivariance_residual <= 1e-6
        and elapsed < 60.0
    )
    report(4, ok, f"decay slope {table.slope:.4f} vs {target:.4f} (15% band), "
                  f"axiom residuals {rep.max_composition_residual:.1e}/"
                  f"{rep.max_equivariance_residual:.1e} <= 1e-6, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_holonomy_identity_bound():
    c = pl_dominated_cocycle(SFTSpace.full_shift(2), 1, 0.4, seed=1005)
    mu = MarkovMeasure.uniform(c.space)
    rng = np.random.default_rng(1005)
    ratios = []
    for xs in sample_measure(mu, 100, seed=1005, depth=24):
        ys = resample_past(mu, xs, rng, depth=16)
        res = stable_holonomy(c, xs, ys)
        if res.distance_alpha_ratio is not None:
            ratios.append(res.distance_alpha_ratio)
    fit, fresh = ratios[:50], ratios[50:]
    frozen = 1.15 * max(fit)
    dom = check_domination(c)
    theory = holder_const_cocycle(c) * 2 ** (1 - dom.theta_s) / (1 - 2 ** (-dom.theta_s))
    ok = len(fresh) >= 50 and max(fresh) <= frozen and max(ratios) <= theory
    report(5, ok, f"identity bound: frozen C {frozen:.3f} covers 50 fresh pairs "
                  f"(worst {max(fresh):.3f}); certified bound {theory:.2f}")


# ---------------------------------------------------------------- criterion 6


def run_pipeline(space, x0, seed, core_len, psi_window=5):
    F = rotation_cocycle(space, 1, seed)
    psi = decaying_rotation_rule(space, psi_window)
    G = conjugated_pair(F, psi)
    pd = check_periodic_data(F, G, 6, tol=1e-9)
    T = build_transfer(F, G, x0, core_len, tol=1e-10)
    coh = verify_cohomology(T, tol=1e-6)
    pts = sorted(T.class_points, key=SymbolicPoint.sort_key)
    rng = np.random.default_rng(seed + 1)
    sub = [pts[i] for i in sorted(rng.choice(len(pts), size=min(64, len(pts)), replace=False))]
    lem = verify_lemma1(T, points=sub, tol=1e-6)
    reg_pts = [pts[i] for i in
               sorted(rng.choice(len(pts), size=min(120, len(pts)), replace=False))]
    measured = estimate_holder(T, reg_pts)
    truth = holder_regression(reg_pts, rotation_conjugacy_rule(psi, x0).phi_at, float(space.rho))
    if math.isinf(measured[0]) and math.isinf(truth[0]):
        exp_gap = 0.0
    else:
        exp_gap = abs(measured[0] - truth[0])
    return pd, coh, lem, exp_gap, len(coh.rows)


def test_criterion_6_theorem_a_pipeline():
    start = time.perf_counter()
    space = SFTSpace.full_shift(2)
    x0 = SymbolicPoint.fixed(space, 0)
    pd, coh, lem, exp_gap, n_pts = run_pipeline(space, x0, seed=1006, core_len=5)
    elapsed = time.perf_counter() - start
    ok = (
        pd.worst == 0.0
        and n_pts >= 200
        and coh.worst <= 1e-6
        and lem.worst <= 1e-6
        and exp_gap <= 0.1
        and elapsed < 120.0
    )
    report(6, ok, f"rotation family: periodic residual {pd.worst}, "
                  f"cohomology {coh.worst:.1e} at {n_pts} points, "
                  f"s/u {lem.worst:.1e}, exponent gap {exp_gap:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_negative_control():
    space = SFTSpace.full_shift(2)
    F = rotation_cocycle(space, 1, seed=1006)
    psi = decaying_rotation_rule(space, 5)
    G = conjugated_pair(F, psi)
    bad = perturb_one_entry(F, Fraction(1, 100))
    rep = check_periodic_data(bad, G, 6, tol=1e-9)
    ok = (not rep.passed) and rep.worst >= 0.005
    report(7, ok, f"perturbed entry rejected: worst residual {rep.worst:.4f} >= 0.005")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_periodic_base():
    start = time.perf_counter()
    space = SFTSpace.golden_mean()
    x0 = SymbolicPoint.periodic(space, (0, 1))
    pd, coh, lem, exp_gap, n_pts = run_pipeline(space, x0, seed=1008, core_len=6)
    elapsed = time.perf_counter() - start
    ok = (
        pd.worst == 0.0
        and n_pts >= 200
        and coh.worst <= 1e-6
        and lem.worst <= 1e-6
        and exp_gap <= 0.1
        and elapsed < 120.0
    )
    report(8, ok, f"period-2 base over golden mean: periodic residual {pd.worst}, "
                  f"cohomology {coh.worst:.1e} at {n_pts} points, s/u {lem.worst:.1e}, "
                  f"exponent gap {exp_gap:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_theorem_b_repair():
    start = time.perf_counter()
    space = SFTSpace.full_shift(2)
    F = rotation_cocycle(space, 1, seed=1009)
    psi = decaying_rotation_rule(space, 4)
    G = conjugated_pair(F, psi)
    x0 = SymbolicPoint.fixed(space, 0)
    rule = rotation_conjugacy_rule(psi, x0)
    mu = MarkovMeasure.uniform(space)
    corrupt_pts = sample_measure(mu, 10, seed=1010, depth=20)
    phi = corrupted_conjugacy(rule, corrupt_pts, seed=1011)
    samples, rep = regularize(phi, F, G, 60, 1e-6, mu=mu, seed=1012)
    recov = max(float(uniform_distance(samples[p], rule.phi_at(p))) for p in corrupt_pts)
    exponent = rep.regression[0]
    elapsed = time.perf_counter() - start
    ok = (
        recov <= 1e-6
        and rep.path_independence_worst <= 1e-6
        and exponent >= rep.beta_gamma - 0.1
        and elapsed < 120.0
    )
    report(9, ok, f"repair at 10 corrupted points: recovery {recov:.1e}, "
                  f"path independence {rep.path_independence_worst:.1e}, "
                  f"exponent {exponent:.3f} >= {rep.beta_gamma - 0.1:.3f}, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_determinism():
    cfg = {"experiment": "theorem-a", "seed": 77}
    doc1 = run(ExperimentConfig.from_json(cfg))
    doc2 = run(ExperimentConfig.from_json(cfg))
    rows1 = [(r.name, r.residual, r.bound, r.passed) for r in doc1.rows]
    rows2 = [(r.name, r.residual, r.bound, r.passed) for r in doc2.rows]
    ok = rows1 == rows2 and doc1.inputs_digest == doc2.inputs_digest and doc1.passed
    report(10, ok, "fixed seed reproduces identical report rows")
