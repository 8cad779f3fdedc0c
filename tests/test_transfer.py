import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from cocyclelab import holonomy, transfer
from cocyclelab import (
    CocycleSpec,
    MarkovMeasure,
    MeasurableConjugacy,
    PLMap,
    ResidualReport,
    SFTSpace,
    SymbolicPoint,
    TransferMap,
    WindowRule,
    build_transfer,
    check_periodic_data,
    compose,
    estimate_holder,
    holder_regression,
    homoclinic_points,
    invert,
    iterate,
    power_domination,
    regularize,
    sample_measure,
    splice,
    uniform_distance,
    verify_cohomology,
    verify_lemma1,
)
from cocyclelab.errors import (
    InsufficientScales,
    MissingSample,
    NoConvergence,
    NotDominated,
    NotStablePair,
    NotUnstablePair,
    PeriodicDataMismatch,
)
from cocyclelab.cocycles import dominated_pair
from cocyclelab.symbolic import distance_exponent
from cocyclelab.transfer import cohomology_residuals
from cocyclelab.fixtures import (
    conjugated_pair,
    decaying_rotation_rule,
    expanding_cocycle,
    near_identity_plmap,
    perturb_one_entry,
    pl_dominated_cocycle,
    rotation_cocycle,
    rotation_conjugacy_rule,
)

from conftest import (
    conj_hol_residuals, equivariant_plmap, float_cocycle, float_map, random_point,
    random_rotation_table, stable_pair, unequal_tail_pool,
)


@pytest.fixture(scope="module")
def family():
    space = SFTSpace.full_shift(2)
    F = rotation_cocycle(space, 1, seed=3)
    psi = decaying_rotation_rule(space, 3)
    G = conjugated_pair(F, psi)
    x0 = SymbolicPoint.fixed(space, 0)
    return space, F, G, psi, x0


# --------------------------------------------------------------- periodic data


def test_periodic_data_identical(family):
    _, F, _, _, _ = family
    rep = check_periodic_data(F, F, 5)
    assert rep.passed and rep.worst == 0.0


def test_periodic_data_conjugate_rotations(family):
    _, F, G, _, _ = family
    rep = check_periodic_data(F, G, 6)
    # angle bookkeeping: the window contributions telescope around any cycle
    assert rep.worst == 0.0


def test_periodic_data_perturbation_detected(family):
    space, F, G, _, _ = family
    bad = perturb_one_entry(F, Fraction(1, 100))
    rep = check_periodic_data(bad, G, 6)
    assert rep.worst >= 0.005
    # oracle: a periodic orbit passing once through the perturbed cylinder
    # picks up exactly the extra rotation 1/100 (possibly repeated)
    assert any(r >= 0.005 for (_, _), r in rep.rows)
    assert rep.worst == pytest.approx(
        min((6 * 0.01) % 1, 1 - (6 * 0.01) % 1), abs=0.06
    )


def test_build_rejects_mismatch(family):
    space, F, G, _, x0 = family
    bad = perturb_one_entry(F, Fraction(1, 100))
    with pytest.raises(PeriodicDataMismatch):
        build_transfer(bad, G, x0, 2)
    with pytest.raises(NotDominated):
        build_transfer(expanding_cocycle(space), expanding_cocycle(space), x0, 2)


def test_domination_is_checked_first_cocycle_first(family):
    space, F, _, _, _ = family
    bad = expanding_cocycle(space)
    with pytest.raises(NotDominated, match="^first cocycle"):
        dominated_pair(bad, bad)
    with pytest.raises(NotDominated, match="^second cocycle"):
        dominated_pair(F, bad, 2)


def test_residual_report_of_rows():
    empty = ResidualReport.of([], tol=0.0)
    assert empty.worst == 0.0 and empty.passed and empty.rows == ()
    rep = ResidualReport.of(iter([("a", 0.5), ("b", 2.0), ("c", 1.0)]), 1.5, [("d",)], 3)
    assert rep.rows == (("a", 0.5), ("b", 2.0), ("c", 1.0))
    assert rep.worst == 2.0 and not rep.passed
    assert rep.diagnostics == (("d",),) and rep.skipped == 3


# ------------------------------------------------------------------- transfer


def test_transfer_identity_pair(family):
    space, F, _, _, x0 = family
    T = build_transfer(F, F, x0, 3)
    assert all(m == PLMap.identity() for m in T.samples.values())
    est = estimate_holder(T)
    assert math.isinf(est[0])  # constant transfer: perfectly regular sentinel


def test_transfer_rotation_family_ground_truth(family):
    space, F, G, psi, x0 = family
    T = build_transfer(F, G, x0, 4, tol=1e-10)
    truth = rotation_conjugacy_rule(psi, x0)
    for y, m in T.samples.items():
        assert uniform_distance(m, truth.phi_at(y)) == 0
    assert T.samples[x0] == PLMap.identity()
    assert T.cohomology.worst == 0.0
    assert T.periodic_data == check_periodic_data(F, G, 6, T.tol)
    assert T.cohomology == verify_cohomology(T)


def test_transfer_holds_each_value_once(family):
    space, F, G, _, x0 = family
    T = build_transfer(F, G, x0, 4, tol=1e-10)
    verify_lemma1(T)
    assert T.holder_estimate is not None
    # the cache holds the shifts off the class that verify_cohomology read
    assert T._cache
    assert not T._cache.keys() & T.samples.keys()


def test_theorem_a_reads_the_build_cohomology(monkeypatch):
    from cocyclelab import experiments
    from cocyclelab.experiments import ExperimentConfig

    calls = []
    check = transfer.verify_cohomology

    def counting_check(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    # patched in experiments too, so a pass of its own there would be counted
    monkeypatch.setattr(transfer, "verify_cohomology", counting_check)
    monkeypatch.setattr(experiments, "verify_cohomology", counting_check, raising=False)
    rows, tables, _ = experiments.run_theorem_a(ExperimentConfig("theorem-a", seed=0))
    assert len(calls) == 1  # inside build_transfer
    by_name = {r.name: r for r in rows}
    n_pts = len(tables["residuals"]) - 1
    assert by_name["cohomology-sample-count"].residual == -n_pts and n_pts >= 200


def test_constant_pair_identity_transfer():
    space = SFTSpace.full_shift(2)
    angle = Fraction(2, 7)
    table = {w: PLMap.rotation(angle) for w in space.words(1)}
    F = CocycleSpec(space, 0, table)
    x0 = SymbolicPoint.fixed(space, 0)
    T = build_transfer(F, F, x0, 3)
    assert all(m == PLMap.identity() for m in T.samples.values())


# ------------------------------------------------------------------ verifiers


def test_lemma1_and_cohomology(family):
    space, F, G, _, x0 = family
    T = build_transfer(F, G, x0, 4, tol=1e-10)
    coh = verify_cohomology(T, tol=1e-6)
    assert coh.passed and coh.worst == 0.0
    lem = verify_lemma1(T, tol=1e-6)
    assert lem.passed and lem.worst == 0.0


def test_cohomology_detects_mismatch(family):
    space, F, G, psi, x0 = family
    T = build_transfer(F, G, x0, 3, tol=1e-10)
    # swap in a wrong cocycle: the residual must light up
    bad = perturb_one_entry(G, Fraction(1, 50))
    T_bad = type(T)(
        F, bad, x0, 1, T.samples, T.beta_budget, T.tol, class_points=T.class_points
    )
    coh = verify_cohomology(T_bad, tol=1e-6)
    assert not coh.passed and coh.worst >= 0.005


def test_hol_conj_transport(family):
    space, F, G, _, x0 = family
    T = build_transfer(F, G, x0, 4, tol=1e-10)
    pts = list(T.class_points)
    pairs = [(y, z) for y in pts[:12] for z in pts[12:24] if stable_pair(y, z)]
    assert pairs
    assert max(conj_hol_residuals(MeasurableConjugacy(T), F, G, pairs)) <= 1e-9


def test_equivariance_invariant(family):
    space, F, G, _, x0 = family
    T = build_transfer(F, G, x0, 3, tol=1e-10)
    for y in list(T.class_points)[:10]:
        lhs = T.phi_at(y.shift(1))
        rhs = compose(compose(iterate(F, y, 1), T.phi_at(y)), invert(iterate(G, y, 1)))
        assert float(uniform_distance(lhs, rhs)) <= 1e-12


def test_swap_gives_inverse_transfer(family):
    space, F, G, _, x0 = family
    T_fg = build_transfer(F, G, x0, 3, tol=1e-10)
    T_gf = build_transfer(G, F, x0, 3, tol=1e-10)
    for y in T_fg.class_points:
        prod = compose(T_fg.samples[y], T_gf.samples[y])
        assert float(uniform_distance(prod, PLMap.identity())) <= 1e-12


def composed_residual(F, G, phi, y):
    """One row's residual by composition: d(f_y, phi(sigma y) g_y phi(y)^-1)."""
    rhs = compose(compose(phi(y.shift(1)), G.generator(y)), invert(phi(y)))
    return float(uniform_distance(F.generator(y), rhs))


def residual_rows(kind, seed):
    """(F, G, phi, points): rotation tables and values over small coprime
    denominators or over ones of at least 2**53; the same with every third
    value and G's entry at symbol 1 PL; or the same with F, the values and
    at odd seeds G in float."""
    space = SFTSpace.full_shift(2)
    rnd, rng = random.Random(seed), np.random.default_rng(seed)
    dens = (2**61 - 1, 3**35, 2**60) if kind == "rotation-wide" else (8, 9, 35)
    F, G = random_rotation_table(space, 1, dens[0], rnd), random_rotation_table(space, 0, dens[1], rnd)
    pts = [random_point(space, rng) for _ in range(12)]
    phi = {p: PLMap.rotation(Fraction(rnd.randrange(dens[2]), dens[2]))
           for y in pts for p in (y, y.shift(1))}
    if kind == "mixed":
        G = CocycleSpec(space, 0, {**G.table, b"\1": near_identity_plmap(rng)})
        phi = {p: near_identity_plmap(rng) if i % 3 == 0 else m for i, (p, m) in enumerate(phi.items())}
    if kind == "float":
        F, G = float_cocycle(F), float_cocycle(G) if seed % 2 else G
        phi = {p: float_map(m) for p, m in phi.items()}
    return F, G, phi.__getitem__, pts


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["rotation", "rotation-wide", "mixed", "float"])
def test_cohomology_residuals_match_the_composed_rows(kind, seed):
    F, G, phi, pts = residual_rows(kind, seed)
    got = cohomology_residuals(F, G, phi, pts)
    assert got == [composed_residual(F, G, phi, y) for y in pts]
    assert any(r > 0.25 for r in got)  # arcs past a quarter: rows are not near-zero
    if kind == "mixed":
        rows = [(F.generator(y), phi(y.shift(1)), G.generator(y), phi(y)) for y in pts]
        assert {all(m.is_rotation for m in row) for row in rows} == {True, False}


def test_cohomology_residual_order_on_pl_values():
    # G_x = psi(sigma x)^-1 f_x psi(x) with PL f and psi: the values do not
    # commute, so only the order phi(sigma y) g_y phi(y)^-1 gives zero
    space = SFTSpace.full_shift(2)
    F = pl_dominated_cocycle(space, 0, 0.4, seed=7)
    rng = np.random.default_rng(8)
    psi = WindowRule(0, {w: near_identity_plmap(rng) for w in space.words(1)})
    G = conjugated_pair(F, psi)
    assert not any(m.is_rotation for m in G.table.values())
    pts = homoclinic_points(SymbolicPoint.fixed(space, 0), 2)
    assert cohomology_residuals(F, G, psi.phi_at, pts) == [0] * len(pts)


def test_rotation_conjugacy_rule_on_equivariant_pl_values():
    # rho commutes with R's 1/4-rotations but its values do not commute with
    # each other, so the ground truth must be rho(x0)^-1 rho(y)
    space = SFTSpace.full_shift(2)
    x0 = SymbolicPoint.fixed(space, 0)
    R = rotation_cocycle(space, 1, 3, denom=4)
    rng = np.random.default_rng(8)
    rho = WindowRule(1, {w: equivariant_plmap(rng, 4) for w in space.words(3)})
    rule = rotation_conjugacy_rule(rho, x0)
    G = conjugated_pair(R, rho)
    assert rule.phi_at(x0) == PLMap.identity()
    pts = homoclinic_points(x0, 2)
    assert cohomology_residuals(R, G, rule.phi_at, pts) == [0] * len(pts)


# ------------------------------------------------- one forward quotient per point


def _transported(T, y):
    """phi at y through two holonomies and a transport: the stable side when
    y is forward-asymptotic to the base point, else the unstable side, else
    "missing"."""
    args = (T.F, T.G, T.base_point, y)
    try:
        return holonomy.transport(*args, "s", tol=T.tol, n0=T.period)
    except NotStablePair:
        try:
            return holonomy.transport(*args, "u", tol=T.tol, n0=T.period)
        except NotUnstablePair:
            return "missing"


def _one_sided(y, other):
    """y with its backward tail, then its forward tail, replaced by ``other``'s."""
    lo = min(y.core_start, 0) - 1
    hi = max(y.core_start + len(y.core), 0) + 1
    word = y.window(lo, hi)
    return splice(other, word, lo, y), splice(y, word, lo, other)


def _probes(x0, other, core_len):
    """Class points, their shifts by 1, -1 and 3, and stable-only and
    unstable-only points next to them."""
    out = []
    for y in homoclinic_points(x0, core_len):
        out += [y, y.shift(1), y.shift(-1), y.shift(3), *_one_sided(y, other)]
    return out


def _no_transport(*args, **kwargs):
    raise AssertionError("phi_at took the holonomy transport")


def _rotation_pair(space, seed):
    F = rotation_cocycle(space, 1, seed=seed)
    return F, conjugated_pair(F, decaying_rotation_rule(space, 3))


def _equivariant_rules(space):
    """A rotation cocycle R with 1/4-rotation values and two window rules
    rho, chi whose PL values commute with those rotations."""
    R = rotation_cocycle(space, 1, 3, denom=4)
    rng = np.random.default_rng(8)
    rho, chi = (WindowRule(1, {w: equivariant_plmap(rng, 4) for w in space.words(3)})
                for _ in range(2))
    return R, rho, chi


def _equivariant_pair(space):
    """F = R conjugated by chi, G = R conjugated by rho: PL values that do not
    commute, with equal return maps at 0^inf because rho and chi commute with
    R's 1/4-rotations."""
    R, rho, chi = _equivariant_rules(space)
    return conjugated_pair(R, chi), conjugated_pair(R, rho)


@pytest.mark.parametrize("order", ["chi-rho", "rho-chi"])
def test_regularize_fiber_lipschitz_max_reads_both_slope_extremes(order):
    """fiber_lipschitz_max is the max over the rebuilt values of
    max(max slope, 1 / min slope).  phi = a^-1 b conjugates R conjugated by b
    to R conjugated by a; swapping a and b inverts every value, so the
    largest slope decides one order and the smallest slope the other."""
    space = SFTSpace.full_shift(2)
    R, rho, chi = _equivariant_rules(space)
    a, b = (chi, rho) if order == "chi-rho" else (rho, chi)
    phi = WindowRule(1, {w: compose(invert(a.table[w]), m) for w, m in b.table.items()})
    F, G = conjugated_pair(R, a), conjugated_pair(R, b)
    tilde, rep = regularize(MeasurableConjugacy(phi), F, G, 20, 1e-8,
                            mu=MarkovMeasure.uniform(space), seed=5)
    assert rep.cohomology_worst == 0
    up = max(float(max(m.slopes)) for m in tilde.values())
    down = max(1.0 / float(min(m.slopes)) for m in tilde.values())
    assert rep.fiber_lipschitz_max == max(up, down)
    assert (up > down) == (order == "chi-rho")  # each order tests one extreme


_FULL2 = SFTSpace.full_shift(2)
_GOLDEN = SFTSpace.golden_mean()
_ORACLE_CASES = {
    # name: builder of (F, G, base point, the other tail of one-sided points, core length)
    "rotations-seed-3": lambda: (*_rotation_pair(_FULL2, 3), SymbolicPoint.fixed(_FULL2, 0),
                                 SymbolicPoint.fixed(_FULL2, 1), 3),
    "rotations-seed-11": lambda: (*_rotation_pair(_FULL2, 11), SymbolicPoint.fixed(_FULL2, 0),
                                  SymbolicPoint.fixed(_FULL2, 1), 3),
    # on the golden mean every onset at (01)^inf is even; the full shift has odd ones
    "rotations-period-2-full": lambda: (*_rotation_pair(_FULL2, 5),
                                        SymbolicPoint.periodic(_FULL2, (0, 1)),
                                        SymbolicPoint.fixed(_FULL2, 1), 3),
    "rotations-period-2-golden": lambda: (*_rotation_pair(_GOLDEN, 5),
                                          SymbolicPoint.periodic(_GOLDEN, (0, 1)),
                                          SymbolicPoint.fixed(_GOLDEN, 0), 4),
    "equivariant-pl": lambda: (*_equivariant_pair(_FULL2), SymbolicPoint.fixed(_FULL2, 0),
                               SymbolicPoint.fixed(_FULL2, 1), 2),
}


# built when a test asks for a case, not at import: a fault in compose then
# fails the tests that use the case and leaves the rest of the module running
@pytest.fixture(scope="module", params=sorted(_ORACLE_CASES))
def oracle_case(request):
    return _ORACLE_CASES[request.param]()


def test_phi_at_forward_quotient_equals_transport(oracle_case, monkeypatch):
    F, G, x0, other, core_len = oracle_case
    T = TransferMap(F, G, x0, x0.period, {}, 0.0, 1e-9)
    probes = _probes(x0, other, core_len)
    monkeypatch.setattr(transfer, "transport", _no_transport)

    def fast(y):
        try:
            return T.phi_at(y)
        except MissingSample:
            return "missing"

    values = [fast(y) for y in probes]
    monkeypatch.undo()
    assert values == [_transported(T, y) for y in probes]
    # both sides are read: an unstable-only point of the period-2 class is a
    # shift, since its splices keep the backward tail of sigma x0
    stable = [stable_pair(x0, y) for y, v in zip(probes, values) if v != "missing"]
    assert any(stable) and not all(stable)


def test_phi_at_forward_quotient_errors(family, monkeypatch):
    space, F, G, _, x0 = family
    T = TransferMap(F, G, x0, 1, {}, 0.0, 1e-9)
    y = SymbolicPoint.make(space, (1,), (1, 0, 1), (0,), 0)
    monkeypatch.setattr(transfer, "transport", _no_transport)
    with pytest.raises(MissingSample):
        T.phi_at(SymbolicPoint.periodic(space, (0, 1)))
    monkeypatch.setattr(holonomy, "HOLONOMY_ITER_CAP", 4)
    with pytest.raises(NoConvergence, match="stabilisation index 7 exceeds cap 4"):
        T.phi_at(y)
    with pytest.raises(NoConvergence, match="stabilisation index 7 exceeds cap 4"):
        holonomy.transport(F, G, x0, y, "s", tol=T.tol)


def test_phi_at_forward_quotient_refuses_a_side_not_dominated(monkeypatch):
    # G keeps F's rotation over x0 = 0^inf, so the return maps agree; its other
    # entry has slope 3 (theta_u < 0) and slopes >= 7/9 (theta_s > 0)
    space = _FULL2
    x0 = SymbolicPoint.fixed(space, 0)
    spin = PLMap.rotation(Fraction(1, 7))
    F = CocycleSpec(space, 0, {b"\x00": spin, b"\x01": PLMap.rotation(Fraction(2, 7))})
    steep = PLMap.make([Fraction(0), Fraction(1, 10)], [Fraction(0), Fraction(3, 10)])
    G = CocycleSpec(space, 0, {b"\x00": spin, b"\x01": steep})
    assert power_domination(G, 1).theta_s > 0 > power_domination(G, 1).theta_u
    T = TransferMap(F, G, x0, 1, {}, 0.0, 1e-9)
    forward_only, backward_only = _one_sided(SymbolicPoint.make(space, (0,), (1,), (0,)),
                                             SymbolicPoint.fixed(space, 1))
    expected = _transported(T, forward_only)
    monkeypatch.setattr(transfer, "transport", _no_transport)
    assert T.phi_at(forward_only) == expected
    with pytest.raises(NotDominated, match="theta_u"):
        T.phi_at(backward_only)
    with pytest.raises(NotDominated, match="theta_u"):
        holonomy.transport(F, G, x0, backward_only, "u", tol=T.tol)


def test_phi_at_keeps_transport_without_equal_exact_returns(family, monkeypatch):
    space, F, G, _, x0 = family
    Ff, Gf = float_cocycle(F), float_cocycle(G)
    near = perturb_one_entry(G, Fraction(1, 10**12))  # the entry over x0 = 0^inf
    assert float(uniform_distance(iterate(near, x0, 1), iterate(F, x0, 1))) <= 1e-9
    # a base point sigma does not fix, where F and F_far agree for one step only
    y0 = SymbolicPoint.make(space, (0,), (1,), (0,))
    F_far = perturb_one_entry(F)  # the entry over 0^inf, which y0 reads from step 2 on
    assert iterate(F, y0, 1) == iterate(F_far, y0, 1) != PLMap.identity()
    probes = _probes(x0, SymbolicPoint.fixed(space, 1), 2)
    monkeypatch.setattr(holonomy, "conjugacy_quotient", _no_transport)
    monkeypatch.setattr(transfer, "conjugacy_quotient", _no_transport)
    # float, mixed exact/float, exact returns that agree only within tol, and
    # a base point with no return map
    for pair, base in (((Ff, Gf), x0), ((F, Gf), x0), ((Ff, G), x0), ((F, near), x0),
                       ((F, F_far), y0)):
        T = TransferMap(*pair, base, 1, {}, 0.0, 1e-9)
        assert [T.phi_at(y) for y in probes] == [_transported(T, y) for y in probes]


def test_phi_at_cache_is_bounded(family, monkeypatch):
    space, F, G, _, x0 = family
    T = build_transfer(F, G, x0, 5, tol=1e-10)  # theorem-a's core length
    assert len(T._cache) < transfer.PHI_CACHE_CAP // 4
    monkeypatch.setattr(transfer, "PHI_CACHE_CAP", 3)
    T = TransferMap(F, G, x0, 1, {}, 0.0, 1e-9)
    probes = _probes(x0, SymbolicPoint.fixed(space, 1), 1)[:7]
    sizes = []
    for y in probes:
        assert T.phi_at(y) == _transported(T, y)
        sizes.append(len(T._cache))
    assert sizes == [1, 2, 3, 1, 2, 3, 1]


def test_missing_sample(family):
    space, F, G, _, x0 = family
    T = build_transfer(F, G, x0, 2, tol=1e-10)
    stranger = SymbolicPoint.periodic(space, (0, 1))
    with pytest.raises(MissingSample):
        T.phi_at(stranger)


# ------------------------------------------------------------------ regression


def test_estimate_holder_decaying_amplitudes(family):
    space, F, G, psi, x0 = family
    T = build_transfer(F, G, x0, 5, tol=1e-10)
    exponent, _ = estimate_holder(T)
    # amplitudes fall off like rho**-|n|, so the modulus is near Lipschitz
    assert exponent >= 0.8


def test_estimate_holder_requires_scales(family):
    space, F, G, _, x0 = family
    T = build_transfer(F, G, x0, 3, tol=1e-10)
    # values that differ only between cylinders give a single distance scale
    pts = list(T.class_points)
    assert len(pts) >= 30 and len({y[0] for y in pts}) == 2
    with pytest.raises(InsufficientScales, match="1 distance scales"):
        holder_regression(pts, lambda y: PLMap.rotation(Fraction(y[0], 4)), 2.0)
    with pytest.raises(InsufficientScales):
        estimate_holder(T, list(T.class_points)[:5])
    # too few samples is reported even when the map is constant on them
    with pytest.raises(InsufficientScales):
        holder_regression(list(T.class_points)[:5], lambda y: PLMap.identity(), 2.0)
    # no pairs of distinct points: no scale at all
    for pts in ([], [x0], [x0, x0]):
        with pytest.raises(InsufficientScales, match="only 0 distance scales"):
            _regression(pts, lambda y: PLMap.identity(), 2.0, 0)


def _regression(points, lookup, rho, min_samples):
    """holder_regression with ``REGRESSION_MIN_SAMPLES`` set to ``min_samples``."""
    with mock.patch.object(transfer, "REGRESSION_MIN_SAMPLES", min_samples):
        return holder_regression(points, lookup, rho)


def _naive_regression(points, lookup, rho, min_samples):
    """Reference: one lookup pair and one distance per pair of points."""
    pts = list(points)
    if len(pts) < min_samples:
        raise InsufficientScales("too few samples")
    log_d, log_r = [], []
    scales = set()
    any_pairs = False
    for i, y in enumerate(pts):
        for z in pts[i + 1 :]:
            n = distance_exponent(y, z)
            if n is None:
                continue
            any_pairs = True
            r = float(uniform_distance(lookup(y), lookup(z)))
            if r == 0:
                continue
            scales.add(n)
            log_d.append(-n * math.log(rho))
            log_r.append(math.log(r))
    if any_pairs and not log_r:
        return (math.inf, 0.0)
    if len(scales) < 3:
        raise InsufficientScales("too few scales")
    slope, intercept = np.polyfit(np.array(log_d), np.array(log_r), 1)
    return (float(slope), float(math.exp(intercept)))


def _dyadic_map(rng, n_breaks=3):
    """Exact map on a 1/64 grid: its float copy compares and hashes equal to it,
    while its slopes are not dyadic, so the two modes round differently."""
    breaks = sorted(rng.choice(64, size=n_breaks, replace=False))
    v0 = int(rng.integers(0, 64))
    vals = sorted(rng.choice(np.arange(v0, v0 + 64), size=n_breaks, replace=False))
    return PLMap.make([Fraction(int(b), 64) for b in breaks], [Fraction(int(v), 64) for v in vals])


_POOL_POINTS = homoclinic_points(SymbolicPoint.fixed(SFTSpace.full_shift(2), 0), 3)
_EXACT_POOL = [_dyadic_map(np.random.default_rng(k)) for k in range(4)] + [
    PLMap.rotation(Fraction(1, 4)),
]
_MAP_POOL = _EXACT_POOL + [float_map(m) for m in _EXACT_POOL]


_POINT_POOLS = (_POOL_POINTS, unequal_tail_pool())


@given(st.sampled_from(_POINT_POOLS), st.data())
def test_holder_regression_matches_per_pair_reference(pool, data):
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=16))
    assignment = data.draw(st.lists(st.integers(0, len(_MAP_POOL) - 1), min_size=len(pool),
                                    max_size=len(pool)))
    pts = [pool[i] for i in picks]
    value = {y: _MAP_POOL[k] for y, k in zip(pool, assignment)}

    def outcome(fn):
        try:
            return fn(pts, value.__getitem__, 2.0, 4)
        except InsufficientScales:
            return "insufficient"

    assert outcome(_regression) == outcome(_naive_regression)


@pytest.mark.parametrize("mixed", [False, True], ids=["exact", "exact-float"])
def test_holder_regression_matches_reference_at_workload_size(mixed):
    # a theorem-b regression: 180 depth-20 samples and their shifts, sorted
    space = SFTSpace.full_shift(2)
    pts = sample_measure(MarkovMeasure.uniform(space), 90, seed=5, depth=20)
    pts = sorted(pts + [y.shift(1) for y in pts], key=SymbolicPoint.sort_key)
    rule = decaying_rotation_rule(space, 4)
    value = {y: rule.phi_at(y) for y in pts}
    if mixed:  # float copies on one cylinder: pairs across it take the float path
        value = {y: float_map(m) if y[0] else m for y, m in value.items()}
    assert len(pts) == 180 and 30 <= len({(m, m.is_exact) for m in value.values()}) < 90
    got = holder_regression(pts, value.__getitem__, float(space.rho))
    assert got == _naive_regression(pts, value.__getitem__, float(space.rho), 30)


_WIDE_ROTATIONS = [PLMap.rotation(Fraction(k, q)) for k, q in (
    (1, 2**61 - 1), (2**60, 2**61 - 1), (5, 3**40), (3**39, 3**40), (1, 4), (1, 3), (0, 1),
    (2**53 + 1, 2**54), (7, 2**53 + 5),
)]


def test_holder_regression_wide_rotation_distances_at_every_offset():
    """The class points take the wide rotations in turn, at each cyclic
    offset: past 2**53 a distance taken as a float quotient of floats rounds
    twice, and one such distance moves the fit."""
    n = len(_WIDE_ROTATIONS)
    for shift in range(n):
        value = {y: _WIDE_ROTATIONS[(i + shift) % n] for i, y in enumerate(_POOL_POINTS)}
        got = holder_regression(_POOL_POINTS, value.__getitem__, 2.0)
        assert got == _naive_regression(_POOL_POINTS, value.__getitem__, 2.0, 30)


@given(st.data())
# no shrinking: each example runs two regressions, and shrinking a failure
# took more than five minutes
@settings(max_examples=40, phases=[Phase.explicit, Phase.generate])
def test_holder_regression_rotation_distances_match_the_reference(data):
    """Distances between exact rotations are taken on integer numerators over
    one common denominator, here past 2**200, and must be the floats of
    uniform_distance that the per-pair reference takes; pairs with a PL or
    float value keep uniform_distance."""
    pool = _POOL_POINTS
    maps = _WIDE_ROTATIONS + data.draw(st.sampled_from([[], _MAP_POOL]))
    assignment = data.draw(st.lists(st.integers(0, len(maps) - 1), min_size=len(pool),
                                    max_size=len(pool)))
    value = {y: maps[k] for y, k in zip(pool, assignment)}

    def outcome(fn):
        try:
            return fn(pool, value.__getitem__, 2.0, 4)
        except InsufficientScales:
            return "insufficient"

    assert outcome(_regression) == outcome(_naive_regression)


def test_rotation_conjugacy_rule_composes_each_entry():
    space = SFTSpace.full_shift(2)
    x0 = SymbolicPoint.fixed(space, 0)
    _, rho, _ = _equivariant_rules(space)
    for psi in (decaying_rotation_rule(space, 3), rho):
        base = invert(psi.phi_at(x0))
        rule = rotation_conjugacy_rule(psi, x0)
        assert rule.window == psi.window
        assert rule.table == {w: compose(base, m) for w, m in psi.table.items()}


def test_holder_regression_reads_points_whole(monkeypatch):
    # the pairwise exponents come from packed codes, not from x[n] and x[-n]
    space = SFTSpace.full_shift(2)
    pts = sample_measure(MarkovMeasure.uniform(space), 120, seed=9)
    rule = decaying_rotation_rule(space, 3)
    value = {y: rule.phi_at(y) for y in pts}
    reads = []
    getitem = SymbolicPoint.__getitem__

    def counted(self, n):
        reads.append(n)
        return getitem(self, n)

    monkeypatch.setattr(SymbolicPoint, "__getitem__", counted)
    exponent, _ = holder_regression(pts, value.__getitem__, float(space.rho))
    assert math.isfinite(exponent)
    assert len(reads) <= len(pts)


# -------------------------------------------------------------- periodic base


def test_periodic_base_pipeline():
    space = SFTSpace.golden_mean()
    F = rotation_cocycle(space, 1, seed=5)
    psi = decaying_rotation_rule(space, 3)
    G = conjugated_pair(F, psi)
    x0 = SymbolicPoint.periodic(space, (0, 1))
    T = build_transfer(F, G, x0, 4, tol=1e-10)
    assert T.period == 2
    truth = rotation_conjugacy_rule(psi, x0)
    for y in T.class_points:
        assert uniform_distance(T.samples[y], truth.phi_at(y)) == 0
    coh = verify_cohomology(T, tol=1e-9)
    assert coh.passed and coh.worst == 0.0
    lem = verify_lemma1(T, points=list(T.class_points)[:12], tol=1e-9)
    assert lem.passed and lem.worst == 0.0
    # closing-point bridge rows actually ran
    assert lem.diagnostics
    for _, _, gap, near in lem.diagnostics:
        assert gap == 0.0


def test_lemma1_counts_skipped_bridges(monkeypatch):
    space = SFTSpace.golden_mean()
    F = rotation_cocycle(space, 1, seed=5)
    G = conjugated_pair(F, decaying_rotation_rule(space, 3))
    T = build_transfer(F, G, SymbolicPoint.periodic(space, (0, 1)), 4, tol=1e-10)
    pts = list(T.class_points)[:12]
    lem = verify_lemma1(T, points=pts, tol=1e-9)
    # a bridge whose window wraps 1 -> 1 has no closing point on the golden mean
    assert lem.skipped > 0
    assert len(lem.diagnostics) + lem.skipped == 3 * len(pts)

    def broken(y, lo, hi):
        raise ValueError("not a forbidden wrap pair")

    monkeypatch.setattr(transfer, "closing_point_range", broken)
    with pytest.raises(ValueError):
        verify_lemma1(T, points=pts, tol=1e-9)


def test_float_transfer_tracks_exact():
    space = SFTSpace.full_shift(2)
    F = rotation_cocycle(space, 1, 0)
    G = conjugated_pair(F, decaying_rotation_rule(space, 3))
    x0 = SymbolicPoint.fixed(space, 0)
    exact = build_transfer(F, G, x0, 3, tol=1e-9)
    T = build_transfer(float_cocycle(F), float_cocycle(G), x0, 3, tol=1e-9)
    assert T.class_points == exact.class_points
    for y in T.class_points:
        assert float(uniform_distance(T.samples[y], float_map(exact.samples[y]))) <= 1e-12
    assert T.cohomology.worst <= 1e-12
    assert verify_lemma1(T, points=list(T.class_points)[:12], tol=1e-12).passed


# ------------------------------------------------------------- lazy estimate


@pytest.fixture
def regression_calls(monkeypatch):
    calls = []
    real = transfer.holder_regression

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transfer, "holder_regression", counted)
    return calls


def test_holder_estimate_is_lazy(family, regression_calls):
    space, F, G, _, x0 = family
    T = build_transfer(F, G, x0, 3, tol=1e-10)
    repr(T)
    assert regression_calls == []
    first = T.holder_estimate
    assert len(regression_calls) == 1
    assert T.holder_estimate is first and len(regression_calls) == 1
    assert first == estimate_holder(T)


def test_holder_estimate_given_value_wins(family, regression_calls):
    space, F, G, _, x0 = family
    T = build_transfer(F, G, x0, 3, tol=1e-10)
    T.holder_estimate = (0.5, 2.0)
    assert T.holder_estimate == (0.5, 2.0)
    assert regression_calls == []


@pytest.mark.parametrize("word", [(0,), (0, 1)], ids=["period-1", "period-2"])
def test_class_points_are_in_sort_key_order(word):
    """The verifiers and theorem-a read ``class_points`` without sorting it."""
    space = SFTSpace.golden_mean()
    F = rotation_cocycle(space, 1, seed=5)
    G = conjugated_pair(F, decaying_rotation_rule(space, 3))
    x0 = SymbolicPoint.periodic(space, word)
    T = build_transfer(F, G, x0, 3, tol=1e-10)
    assert T.class_points == tuple(homoclinic_points(x0, 3))
    assert list(T.class_points) == sorted(T.class_points, key=SymbolicPoint.sort_key)
    assert [y for y, _ in T.cohomology.rows] == list(T.class_points)
    # the class holds a fixed base point itself, so the samples keep its order
    assert (list(T.samples) == list(T.class_points)) == (len(word) == 1)


def test_transfer_on_a_one_way_space_is_constant_on_its_class():
    # one-way trapdoor: symbol 2 can never return to the base symbol 0, so the
    # class of 0 never reads a 2
    space = SFTSpace(3, ((1, 1, 1), (1, 1, 1), (0, 0, 1)))
    angle = Fraction(1, 6)
    F = CocycleSpec(space, 0, {w: PLMap.rotation(angle) for w in space.words(1)})
    x0 = SymbolicPoint.fixed(space, 0)
    T = build_transfer(F, F, x0, 3)
    assert all(2 not in y.window(-4, 4) for y in T.class_points)
    # phi is the identity across the whole class: the regression reads it as constant
    assert len(T.class_points) == 42 and T.holder_estimate == (math.inf, 0.0)
