import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cocyclelab import (
    CocycleSpec,
    MarkovMeasure,
    MeasurableConjugacy,
    PLMap,
    SFTSpace,
    SymbolicPoint,
    TransferMap,
    WindowRule,
    build_transfer,
    check_bounded_distortion,
    compose,
    regularize,
    resample_future,
    resample_past,
    sample_measure,
    uniform_distance,
    verify_lemma1,
)
from cocyclelab.errors import (
    DistortionUnbounded,
    MissingSample,
    NotDominated,
)
from cocyclelab.fixtures import (
    conjugated_pair,
    corrupted_conjugacy,
    decaying_rotation_rule,
    expanding_cocycle,
    near_identity_plmap,
    rotation_cocycle,
    rotation_conjugacy_rule,
    telescoping_cocycle,
)
from cocyclelab import holonomy, rigidity
from cocyclelab.cocycles import GROWTH_MARGIN
from cocyclelab.symbolic import distance_exponent
from cocyclelab.transfer import cohomology_residuals, holder_regression

from conftest import conj_hol_residuals, equivariant_plmap, float_cocycle, stable_pair


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


def unstable_pairs(mu, count, seed):
    """Pairs on one unstable set only: a redrawn future that happens to end in
    x's own forward tail makes a stable pair as well, and is left out."""
    rng = np.random.default_rng(seed)
    pairs = []
    for x in sample_measure(mu, count, seed, depth=20):
        y = resample_future(mu, x, rng, depth=12)
        if not stable_pair(x, y):
            pairs.append((x, y))
    assert pairs
    return pairs


def identity_rule(space):
    return MeasurableConjugacy(WindowRule(0, {w: PLMap.identity() for w in space.words(1)}))


# ----------------------------------------------------- holonomies vs conjugacy
# Theorem B's relation phi_y = h^F_xy phi_x (h^G_xy)^-1, carried by
# holonomy.transport (see conftest.conj_hol_residuals)


def test_conj_hol_identity_case(setup):
    space, F, _, _, _, _, mu = setup
    phi = identity_rule(space)
    for pairs in (stable_pairs(mu, 10, 1), unstable_pairs(mu, 10, 1)):
        assert max(conj_hol_residuals(phi, F, F, pairs)) == 0.0


def test_conj_hol_rotation_family(setup):
    space, F, G, _, _, rule, mu = setup
    phi = MeasurableConjugacy(rule)
    for pairs in (stable_pairs(mu, 12, 2), unstable_pairs(mu, 12, 2)):
        assert max(conj_hol_residuals(phi, F, G, pairs)) <= 1e-9


def test_conj_hol_exact_pl_identity_case(setup):
    space, _, _, _, _, _, mu = setup
    # H_x = psi(sigma x)^-1 psi(x): exact PL generators, not all rotations, whose
    # orbit products psi(sigma^n x)^-1 psi(x) keep a bounded distortion
    rng = np.random.default_rng(9)
    psi = WindowRule(0, {w: near_identity_plmap(rng) for w in space.words(1)})
    identity = CocycleSpec(space, 0, {w: PLMap.identity() for w in space.words(1)})
    H = conjugated_pair(identity, psi)
    assert not all(m.is_rotation for m in H.table.values())
    pairs = stable_pairs(mu, 6, 7) + unstable_pairs(mu, 6, 7)
    assert max(conj_hol_residuals(identity_rule(space), H, H, pairs)) == 0.0
    # psi itself conjugates the identity cocycle to H
    assert max(conj_hol_residuals(MeasurableConjugacy(psi), identity, H, pairs)) == 0.0


def test_bounded_oscillating_distortion_is_not_flagged(setup):
    space, F, _, _, _, _, mu = setup
    # every product of G is psi(sigma^n x)^-1 R psi(x) for a rotation R, so its
    # distortion stays below max L(psi) * max L(psi^-1) while it oscillates
    rng = np.random.default_rng(9)
    psi = WindowRule(0, {w: near_identity_plmap(rng) for w in space.words(1)})
    G = conjugated_pair(F, psi)
    pairs = stable_pairs(mu, 6, 7) + unstable_pairs(mu, 6, 7)
    pts = sorted({p for pair in pairs for p in pair}, key=SymbolicPoint.sort_key)
    rep = check_bounded_distortion(G, 12, pts)
    bound = max(float(m.max_slope) for m in psi.table.values()) / min(
        float(m.min_slope) for m in psi.table.values())
    assert rep.K_est <= bound
    assert len(set(rep.per_step_max)) > 1 and not rep.growth_flagged
    assert max(conj_hol_residuals(MeasurableConjugacy(psi), F, G, pairs)) <= 1e-9
    # an expanding cocycle over the same points is still flagged
    assert check_bounded_distortion(expanding_cocycle(space), 12, pts).growth_flagged


@pytest.fixture(scope="module")
def equivariant_w2():
    """R with 1/4-rotation values, and G = R conjugated by a window-2 rule rho
    of 1/4-equivariant PL maps: each product of G is rho(sigma^n x)^-1 R^n
    rho(x), so G's distortion stays below max L(rho) * max L(rho^-1)."""
    space = SFTSpace.full_shift(2)
    R = rotation_cocycle(space, 1, 3, denom=4)
    rng = np.random.default_rng(8)
    rho = WindowRule(2, {w: equivariant_plmap(rng, 4) for w in space.words(5)})
    return R, conjugated_pair(R, rho), rho


def test_distortion_screen_passes_bounded_pl_distortion(equivariant_w2):
    R, G, rho = equivariant_w2
    space = R.space
    # the 24 anchors theorem-b's seed-0 regularize screens: the later half of
    # the horizon peaks 4% above the earlier half, which is oscillation
    pts = sample_measure(MarkovMeasure.uniform(space), 60, 13)[:24]
    rep = check_bounded_distortion(G, rigidity.DISTORTION_HORIZON, pts)
    early, late = max(rep.per_step_max[:6]), max(rep.per_step_max[6:])
    assert early < late < GROWTH_MARGIN * early
    bound = max(float(m.max_slope) for m in rho.table.values()) / min(
        float(m.min_slope) for m in rho.table.values())
    assert rep.K_est <= bound and not rep.growth_flagged
    # expanding products are still flagged over the same points, telescoping ones are not
    orbit = SymbolicPoint.periodic(space, (0, 1))
    for horizon in (10, 12):
        assert check_bounded_distortion(expanding_cocycle(space), horizon, pts).growth_flagged
        tel = check_bounded_distortion(telescoping_cocycle(space), horizon, [orbit, orbit.shift(1)])
        assert not tel.growth_flagged


def test_regularize_repairs_a_bounded_pl_distortion_pair(equivariant_w2):
    # theorem-b's seed-0 corruption and anchors over the pair (R, G)
    R, G, rho = equivariant_w2
    mu = MarkovMeasure.uniform(R.space)
    rule = rotation_conjugacy_rule(rho, SymbolicPoint.fixed(R.space, 0))
    corrupt = sample_measure(mu, 10, 11, depth=20)
    samples, rep = regularize(corrupted_conjugacy(rule, corrupt, 12), R, G, 60, 1e-9, mu=mu, seed=13)
    assert all(samples[p] == rule.phi_at(p) for p in corrupt)
    assert rep.cohomology_worst == rep.path_independence_worst == 0


def test_conj_hol_detects_corruption(setup):
    space, F, G, _, _, rule, mu = setup
    pairs = stable_pairs(mu, 6, 3)
    x = pairs[0][0]
    phi = corrupted_conjugacy(rule, [x], seed=5)
    magnitude = float(uniform_distance(phi.phi_at(x), rule.phi_at(x)))
    # over every pair the corrupted value breaks the relation by its magnitude
    assert max(conj_hol_residuals(phi, F, G, pairs)) >= magnitude - 1e-9 > 1e-9
    # off the corruption the relation holds
    clean = [(a, b) for a, b in pairs if a not in phi.corruption and b not in phi.corruption]
    assert 0 < len(clean) < len(pairs)
    assert max(conj_hol_residuals(phi, F, G, clean)) <= 1e-9


def test_regularize_refuses_unbounded_distortion(setup, monkeypatch):
    """regularize screens G's distortion over its first 24 anchor candidates.
    It checks domination first, so an undominated G such as expanding_cocycle
    is refused as NotDominated; a screen that reports growth refuses a
    dominated pair."""
    space, F, G, _, _, rule, mu = setup
    phi = MeasurableConjugacy(rule)
    with pytest.raises(NotDominated, match="second cocycle"):
        regularize(phi, F, expanding_cocycle(space), 40, 1e-8, mu=mu, seed=21)
    screened = []
    real = rigidity.check_bounded_distortion

    def growing(c, horizon, samples):
        screened.append((c, horizon, len(samples)))
        return dataclasses.replace(real(c, horizon, samples), growth_flagged=True)

    monkeypatch.setattr(rigidity, "check_bounded_distortion", growing)
    with pytest.raises(DistortionUnbounded, match="through horizon 12"):
        regularize(phi, F, G, 40, 1e-8, mu=mu, seed=21)
    assert screened == [(G, 12, 24)]


def test_measurable_conjugacy_over_a_transfer_map(setup):
    space, F, G, _, x0, _, _ = setup
    T = build_transfer(F, G, x0, 2, tol=1e-10)
    y = sorted(T.class_points, key=SymbolicPoint.sort_key)[1]
    bad = compose(PLMap.rotation(Fraction(1, 8)), T.phi_at(y))
    phi = MeasurableConjugacy(T, {y: bad})
    assert phi.phi_at(y) == bad != T.phi_at(y)
    # off the corruption the rule resolves, inside the sampled class and beyond it
    forward_only = SymbolicPoint.make(space, (1,), (1, 0, 1), (0,), 0)
    assert forward_only not in T.samples
    for z in [*T.class_points, forward_only]:
        if z != y:
            assert phi.phi_at(z) == T.phi_at(z)


# ---------------------------------------------------------------- regularise


def test_regularize_without_corruption_is_identity_on_rule(setup):
    space, F, G, _, _, rule, mu = setup
    phi = MeasurableConjugacy(rule)
    samples, rep = regularize(phi, F, G, 40, 1e-8, mu=mu, seed=21)
    for pt, val in samples.items():
        assert float(uniform_distance(val, rule.phi_at(pt))) <= 1e-10
    assert rep.anchors_excluded == 0
    assert not rep.repaired_points


def test_regularize_repairs_corruption(setup):
    space, F, G, _, _, rule, mu = setup
    corrupt_pts = sample_measure(mu, 10, seed=31, depth=18)
    phi = corrupted_conjugacy(rule, corrupt_pts, seed=32)
    samples, rep = regularize(phi, F, G, 50, 1e-8, mu=mu, seed=33)
    for pt in corrupt_pts:
        assert float(uniform_distance(samples[pt], rule.phi_at(pt))) <= 1e-10
    # repaired points report the distance between corrupted and clean values
    for pt, change in rep.repaired_points:
        assert change >= 0.05
    assert rep.path_independence_worst <= 1e-10
    assert rep.cohomology_worst <= 1e-10
    assert rep.anchors_excluded == len(corrupt_pts)


def test_path_check_takes_the_other_route_at_twenty_carried_targets(setup, monkeypatch):
    """path-independence carries 20 targets again by the "us" route through
    the bracket, each from its anchor, which is another point: an anchor is
    its own target and has no route to compare."""
    space, F, G, _, _, rule, mu = setup
    real = rigidity._transport
    other = []

    def bent(phi_anchor, F, G, a, t, tol, order="su"):
        val = real(phi_anchor, F, G, a, t, tol, order)
        if order == "us":
            assert a != t
            other.append(t)
            val = compose(PLMap.rotation(Fraction(1, 1000)), val)
        return val

    monkeypatch.setattr(rigidity, "_transport", bent)
    _, rep = regularize(MeasurableConjugacy(rule), F, G, 40, 1e-8, mu=mu, seed=21)
    assert len(set(other)) == len(other) == 20
    assert rep.path_independence_worst == pytest.approx(1 / 1000)


def test_regularize_screens_corrupted_anchor(setup):
    space, F, G, _, _, rule, mu = setup
    anchor_pool = sample_measure(mu, 40, seed=41, depth=18)
    phi = corrupted_conjugacy(rule, anchor_pool[:2], seed=42)
    samples, rep = regularize(phi, F, G, 40, 1e-8, mu=mu, seed=41)
    assert rep.anchors_excluded >= 2
    for pt in anchor_pool[:2]:
        assert float(uniform_distance(samples[pt], rule.phi_at(pt))) <= 1e-10


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
    _, rep = regularize(phi, F, G, 40, tol, mu=mu, seed=61)
    bound = max(
        max(float(m.max_slope), 1.0 / float(m.min_slope)) for m in rule.table.values()
    )
    assert rep.fiber_lipschitz_max <= bound * (1 + tol)


def test_regularize_requires_domination(setup):
    space, _, G, _, _, rule, mu = setup
    phi = MeasurableConjugacy(rule)
    with pytest.raises(NotDominated):
        regularize(phi, expanding_cocycle(space), G, 20, 1e-8, mu=mu, seed=71)


def test_regularize_missing_regression_stays_none(setup):
    space, F, G, _, _, rule, mu = setup
    _, rep = regularize(MeasurableConjugacy(rule), F, G, 4, 1e-8, mu=mu, seed=81)
    assert rep.regression is None  # fewer targets than the regression needs
    assert rep.to_json()["regression"] is None


def test_regularize_exponent_report(setup):
    space, F, G, _, _, rule, mu = setup
    samples, rep = regularize(MeasurableConjugacy(rule), F, G, 40, 1e-8, mu=mu, seed=81)
    assert rep.beta_gamma == rep.gamma == pytest.approx(0.5)  # theta=1 budget
    assert rep.regression[0] >= rep.beta_gamma - 0.1
    # without corruption every target is regressed, so the report's fit is the
    # fit over the returned sample table
    pts = sorted(samples, key=SymbolicPoint.sort_key)
    assert rep.regression == holder_regression(pts, samples.__getitem__, float(space.rho))


def test_regularize_takes_the_nearest_anchor(setup):
    # tol 0.05 keeps the corrupted anchors and stops the holonomies early, so
    # values carried from different anchors differ and the choice shows
    space, F, G, _, _, rule, mu = setup
    count, seed, tol = 30, 95, 0.05
    phi = corrupted_conjugacy(rule, sample_measure(mu, count, seed)[::2], seed=4)
    tilde, rep = regularize(phi, F, G, count, tol, mu=mu, seed=seed)
    raw = sample_measure(mu, count, seed) + sorted(phi.corruption, key=SymbolicPoint.sort_key)
    anchors = [a for a, r in zip(raw, cohomology_residuals(F, G, phi.phi_at, raw)) if r <= 10 * tol]
    assert rep.anchors_used == len(anchors)

    def ranked(t):
        """The old rule: the largest (closeness, sort_key) in t's cylinder."""
        def key(a):
            return (math.inf if a == t else distance_exponent(a, t), a.sort_key())
        return sorted((a for a in anchors if a[0] == t[0]), key=key, reverse=True)

    def carried(a, t):
        return phi.phi_at(a) if a == t else rigidity._transport(phi.phi_at(a), F, G, a, t, tol)

    runner_up_differs = tie_break_matters = 0
    for t, value in tilde.items():
        best, *rest = ranked(t)
        assert value == carried(best, t)
        second = next((a for a in rest if a != best), None)
        if second is not None and carried(second, t) != value:
            runner_up_differs += 1
            if best != t and distance_exponent(best, t) == distance_exponent(second, t):
                tie_break_matters += 1
    assert runner_up_differs >= len(tilde) // 2 and tie_break_matters >= 1


def test_regularize_refuses_a_cylinder_with_no_clean_anchor(setup):
    # every sampled anchor in the cylinder [1] is corrupted, so screening drops
    # them all, and the targets there have no anchor to carry a value from
    space, F, G, _, _, rule, mu = setup
    count, seed, tol = 30, 95, 1e-6
    ones = [a for a in sample_measure(mu, count, seed) if a[0] == 1]
    phi = corrupted_conjugacy(rule, ones, seed=4)
    assert all(r > 10 * tol for r in cohomology_residuals(F, G, phi.phi_at, ones))
    with pytest.raises(MissingSample, match="no clean anchor shares the cylinder"):
        regularize(phi, F, G, count, tol, mu=mu, seed=seed)


# ----------------------------------------------------------- traced holonomies


def test_transports_reach_the_module_holonomies(setup, monkeypatch):
    """Every transport goes through ``holonomy.stable_holonomy`` and
    ``holonomy.unstable_holonomy`` by name, so wrappers installed there (as a
    tracer does) see the holonomies of both constructions.  ``phi_at`` reads
    an exact pair with equal return maps as one quotient and reaches neither."""
    space, F, G, _, x0, rule, mu = setup
    T = build_transfer(F, G, x0, 2, tol=1e-10)
    pts = sorted(T.class_points, key=SymbolicPoint.sort_key)[1:4]
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("stable_holonomy", "unstable_holonomy"):
        monkeypatch.setattr(holonomy, name, counting(name, getattr(holonomy, name)))

    def reached(run):
        calls.clear()
        run()
        return set(calls)

    both = {"stable_holonomy", "unstable_holonomy"}
    forward_only = SymbolicPoint.make(space, (1,), (1, 0, 1), (0,), 0)
    backward_only = SymbolicPoint.make(space, (0,), (1, 0, 1), (1,), 0)
    # equal exact return maps at x0: phi is one forward quotient, equal to the
    # holonomy transport on the side that reaches the point
    for y, side in ((forward_only, "s"), (backward_only, "u")):
        assert reached(lambda: T.phi_at(y)) == set()
        assert T.phi_at(y) == holonomy.transport(F, G, x0, y, side, tol=T.tol)
    # a float copy of the pair keeps the holonomy transport
    T_float = TransferMap(float_cocycle(F), float_cocycle(G), x0, 1, {}, T.beta_budget, T.tol)
    assert reached(lambda: T_float.phi_at(forward_only)) == {"stable_holonomy"}
    assert reached(lambda: T_float.phi_at(backward_only)) == both
    assert reached(lambda: verify_lemma1(T, pts)) == both
    assert reached(
        lambda: conj_hol_residuals(MeasurableConjugacy(T), F, G, [(pts[0], pts[1])])
    ) == {"stable_holonomy"}
    pairs = stable_pairs(mu, 2, 8) + unstable_pairs(mu, 2, 8)
    phi = MeasurableConjugacy(rule)
    assert reached(lambda: conj_hol_residuals(phi, F, G, pairs)) == both
    assert reached(lambda: regularize(phi, F, G, 8, 1e-8, mu=mu, seed=21)) == both
