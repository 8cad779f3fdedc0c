import numpy as np
import pytest

from cocyclelab import (
    MarkovMeasure,
    MeasurableConjugacy,
    PLMap,
    SFTSpace,
    SymbolicPoint,
    WindowRule,
    check_conj_hol_relation,
    regularize,
    resample_past,
    sample_measure,
    stable_pair_holder_check,
    uniform_distance,
)
from cocyclelab.errors import DistortionUnbounded, InsufficientScales, NotDominated
from cocyclelab.fixtures import (
    conjugated_pair,
    corrupted_conjugacy,
    decaying_rotation_rule,
    expanding_cocycle,
    rotation_cocycle,
    rotation_conjugacy_rule,
)
from cocyclelab import transfer
from cocyclelab.transfer import holder_regression


@pytest.fixture(scope="module")
def setup():
    space = SFTSpace.full_shift(2)
    F = rotation_cocycle(space, 1, seed=3)
    psi = decaying_rotation_rule(space, 3)
    G = conjugated_pair(F, psi)
    x0 = SymbolicPoint.fixed(space, 0)
    rule = rotation_conjugacy_rule(psi, x0)
    mu = MarkovMeasure.uniform(space)
    return space, F, G, psi, x0, rule, mu


def stable_pairs(mu, count, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for x in sample_measure(mu, count, seed, depth=20):
        pairs.append((x, resample_past(mu, x, rng, depth=12)))
    return pairs


# ----------------------------------------------------- holonomies vs conjugacy


def test_conj_hol_identity_case(setup):
    space, F, _, _, _, _, mu = setup
    phi = MeasurableConjugacy(WindowRule(0, {w: PLMap.identity() for w in space.words(1)}))
    rep = check_conj_hol_relation(phi, F, F, stable_pairs(mu, 10, 1), tol=1e-12)
    assert rep.passed and rep.worst == 0.0


def test_conj_hol_rotation_family(setup):
    space, F, G, _, _, rule, mu = setup
    phi = MeasurableConjugacy(rule)
    rep = check_conj_hol_relation(phi, F, G, stable_pairs(mu, 12, 2), tol=1e-9)
    assert rep.passed


def test_conj_hol_detects_corruption(setup):
    space, F, G, _, _, rule, mu = setup
    pairs = stable_pairs(mu, 6, 3)
    x = pairs[0][0]
    phi = corrupted_conjugacy(rule, [x], seed=5)
    magnitude = float(uniform_distance(phi.phi_at(x), rule.phi(x)))
    rep = check_conj_hol_relation(phi, F, G, pairs, tol=1e-9, skip_corrupted=False)
    assert not rep.passed
    assert rep.worst >= magnitude - 1e-9
    # with screening the corrupted pair is excluded and the rest is clean
    rep2 = check_conj_hol_relation(phi, F, G, pairs, tol=1e-9)
    assert rep2.passed


def test_conj_hol_distortion_screen(setup):
    space, F, _, _, _, rule, mu = setup
    phi = MeasurableConjugacy(rule)
    bad = expanding_cocycle(space)
    with pytest.raises(DistortionUnbounded):
        check_conj_hol_relation(phi, F, bad, stable_pairs(mu, 4, 4), tol=1e-9)


# -------------------------------------------------------------- modulus check


def test_holder_check_identity_rule(setup):
    space, F, _, _, _, _, mu = setup
    phi = MeasurableConjugacy(WindowRule(0, {w: PLMap.identity() for w in space.words(1)}))
    rep = stable_pair_holder_check(phi, F, stable_pairs(mu, 30, 5), beta=1.0)
    assert rep.passed and rep.constant == 0.0


def test_holder_check_rotation_family(setup):
    space, F, _, _, x0, rule, mu = setup
    phi = MeasurableConjugacy(rule)
    pairs = stable_pairs(mu, 60, 6)
    draws = sample_measure(mu, 30, seed=66, depth=20)
    generic = [(a, b) for a, b in zip(draws[0::2], draws[1::2]) if a[0] == b[0]]
    rep = stable_pair_holder_check(phi, F, pairs, beta=1.0, generic_pairs=generic)
    assert rep.passed
    assert rep.chain_pairs > 0 and rep.worst_chain_ratio <= rep.constant
    # regression estimate on the same construction clears the budget
    pts = sorted({p for pr in pairs for p in pr}, key=SymbolicPoint.sort_key)
    est = holder_regression(pts, phi.phi_at, float(space.rho))
    assert est[0] >= rep.exponent - 0.1


def test_holder_check_needs_scales(setup):
    space, F, _, _, _, rule, mu = setup
    phi = MeasurableConjugacy(rule)
    # pairs all at a single distance scale: degenerate regression input
    pairs = stable_pairs(mu, 10, 10)[:1]
    with pytest.raises(InsufficientScales):
        stable_pair_holder_check(phi, F, pairs, beta=1.0)


# ---------------------------------------------------------------- regularise


def test_regularize_without_corruption_is_identity_on_rule(setup):
    space, F, G, _, _, rule, mu = setup
    phi = MeasurableConjugacy(rule)
    out, rep = regularize(phi, F, G, 40, 1e-8, mu=mu, seed=21)
    for pt, val in out.samples.items():
        assert float(uniform_distance(val, rule.phi(pt))) <= 1e-10
    assert rep.anchors_excluded == 0
    assert not rep.repaired_points


def test_regularize_repairs_corruption(setup):
    space, F, G, _, _, rule, mu = setup
    corrupt_pts = sample_measure(mu, 10, seed=31, depth=18)
    phi = corrupted_conjugacy(rule, corrupt_pts, seed=32)
    out, rep = regularize(phi, F, G, 50, 1e-8, mu=mu, seed=33)
    for pt in corrupt_pts:
        assert float(uniform_distance(out.samples[pt], rule.phi(pt))) <= 1e-10
    # repaired points report the distance between corrupted and clean values
    for pt, change in rep.repaired_points:
        assert change >= 0.05
    assert rep.path_independence_worst <= 1e-10
    assert rep.cohomology_worst <= 1e-10
    assert rep.anchors_excluded == len(corrupt_pts)


def test_regularize_screens_corrupted_anchor(setup):
    space, F, G, _, _, rule, mu = setup
    anchor_pool = sample_measure(mu, 40, seed=41, depth=18)
    phi = corrupted_conjugacy(rule, anchor_pool[:2], seed=42)
    out, rep = regularize(phi, F, G, 40, 1e-8, mu=mu, seed=41)
    assert rep.anchors_excluded >= 2
    for pt in anchor_pool[:2]:
        assert float(uniform_distance(out.samples[pt], rule.phi(pt))) <= 1e-10


def test_regularize_corruption_invisible_in_regression(setup):
    space, F, G, _, _, rule, mu = setup
    corrupt_pts = sample_measure(mu, 10, seed=51, depth=18)
    phi = corrupted_conjugacy(rule, corrupt_pts, seed=52)
    _, rep1 = regularize(phi, F, G, 40, 1e-8, mu=mu, seed=53)
    _, rep2 = regularize(MeasurableConjugacy(rule), F, G, 40, 1e-8, mu=mu, seed=53)
    assert abs(rep1.regression[0] - rep2.regression[0]) <= 0.02


def test_regularize_preserves_fiber_bound(setup):
    space, F, G, _, _, rule, mu = setup
    tol = 1e-8
    phi = MeasurableConjugacy(rule)
    out, rep = regularize(phi, F, G, 40, tol, mu=mu, seed=61)
    bound = max(
        max(float(m.max_slope), 1.0 / float(m.min_slope)) for m in rule.table.values()
    )
    assert rep.fiber_lipschitz_max <= bound * (1 + tol)


def test_regularize_requires_domination(setup):
    space, _, G, _, _, rule, mu = setup
    phi = MeasurableConjugacy(rule)
    with pytest.raises(NotDominated):
        regularize(phi, expanding_cocycle(space), G, 20, 1e-8, mu=mu, seed=71)


def test_regularize_missing_regression_stays_none(setup, monkeypatch):
    space, F, G, _, _, rule, mu = setup
    out, rep = regularize(MeasurableConjugacy(rule), F, G, 4, 1e-8, mu=mu, seed=81)
    assert rep.regression is None  # fewer targets than the regression needs

    def no_call(*args, **kwargs):
        raise AssertionError("an explicit None must not start a regression")

    monkeypatch.setattr(transfer, "holder_regression", no_call)
    assert out.holder_estimate is None and out.to_json()["holder_estimate"] is None


def test_regularize_exponent_report(setup):
    space, F, G, _, _, rule, mu = setup
    out, rep = regularize(MeasurableConjugacy(rule), F, G, 40, 1e-8, mu=mu, seed=81)
    assert rep.beta_gamma == pytest.approx(0.5)  # beta=1, theta=1 budget
    assert rep.regression[0] >= rep.beta_gamma - 0.1
    assert out.holder_estimate == rep.regression
