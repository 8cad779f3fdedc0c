import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cocyclelab import (
    CocycleSpec,
    PLMap,
    SFTSpace,
    SymbolicPoint,
    check_domination,
    compose,
    fb_family,
    holder_const_cocycle,
    holonomy_convergence_table,
    homoclinic_points,
    invert,
    iterate,
    stable_holonomy,
    transport,
    uniform_distance,
    unstable_holonomy,
    verify_holonomy_axioms,
)
from cocyclelab import holonomy
from cocyclelab.circlemaps import SEGMENT_EPS, SLOPE_EPS
from cocyclelab.cocycles import quotient_numerators, quotients
from cocyclelab.errors import NoConvergence, NotDominated, NotStablePair
from cocyclelab.fixtures import (
    expanding_cocycle,
    pl_dominated_cocycle,
    random_plmap,
    rotation_cocycle,
    staircase_cocycle,
)
from cocyclelab.symbolic import MarkovMeasure, distance, resample_past, sample_measure

from conftest import blend_with_identity, float_cocycle, random_point, random_rotation_table


def constant_cocycle(space, m):
    return CocycleSpec(space, 0, {w: m for w in space.words(1)})


# ----------------------------------------------------------------- base cases


def test_constant_cocycle_gives_identity(full2):
    # blend toward the identity so the constant generator is dominated
    c = constant_cocycle(full2, blend_with_identity(fb_family(Fraction(1, 4)), Fraction(1, 2)))
    x = SymbolicPoint.fixed(full2, 0)
    y = SymbolicPoint.make(full2, (0,), (1, 1), (0,), 0)
    res = stable_holonomy(c, x, y)
    assert res.map == PLMap.identity()
    assert res.cauchy_tail == 0.0


def test_same_point_gives_identity(full2, rng):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=3)
    x = random_point(full2, rng)
    assert stable_holonomy(c, x, x).map == PLMap.identity()
    assert unstable_holonomy(c, x, x).map == PLMap.identity()


def test_rotation_angle_series_oracle(full2):
    c = rotation_cocycle(full2, 0, seed=8)
    x = SymbolicPoint.fixed(full2, 0)
    y = SymbolicPoint.make(full2, (1,), (1, 1, 0), (0,), -2)  # tail 0 from coord 1
    res = stable_holonomy(c, x, y)
    # closed form: finitely many non-zero terms of the angle series
    s = sum(
        c.generator(x.shift(n)).angle - c.generator(y.shift(n)).angle
        for n in range(0, 12)
    )
    assert res.map.is_rotation and res.map.angle == s % 1
    # unstable mirror over n <= 0: time-reversed pair sharing the backward tail
    y_u = SymbolicPoint.make(full2, (0,), (1, 1, 0), (1,), 1)
    res_u = unstable_holonomy(c, x, y_u)
    su = sum(
        c.generator(y_u.shift(-n)).angle - c.generator(x.shift(-n)).angle
        for n in range(1, 12)
    )
    assert res_u.map.angle == su % 1


def test_errors(full2):
    bad = expanding_cocycle(full2)
    x = SymbolicPoint.fixed(full2, 0)
    y = SymbolicPoint.make(full2, (0,), (1,), (0,), 0)
    with pytest.raises(NotDominated):
        stable_holonomy(bad, x, y)
    good = pl_dominated_cocycle(full2, 1, 0.4, seed=3)
    z = SymbolicPoint.fixed(full2, 1)
    with pytest.raises(NotStablePair):
        stable_holonomy(good, x, z)


def test_holonomy_stops_at_its_iteration_cap(full2, monkeypatch):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    x = SymbolicPoint.fixed(full2, 0)
    y = SymbolicPoint.make(full2, (0,), (1,), (0,), 2)
    assert stable_holonomy(c, x, y).n_used == 4
    monkeypatch.setattr(holonomy, "HOLONOMY_ITER_CAP", 1)
    with pytest.raises(
        NoConvergence,
        match=r"s-holonomy of \(<\(0\)\*\|@0\|\(0\)\*>, <\(0\)\*\|1@2\|\(0\)\*>\): "
        r"stabilisation index 4 exceeds cap 1",
    ):
        stable_holonomy(c, x, y)


# ------------------------------------------------------------------------ memo


def _fresh(hol, c, x, y, n0):
    """``hol`` computed with the cocycle's caches emptied, which are then put back."""
    held = dict(c._cache)
    c._cache.clear()
    try:
        return hol(c, x, y, n0=n0)
    finally:
        c._cache.clear()
        c._cache.update(held)


@settings(max_examples=12)
@given(
    kind=st.sampled_from(["pl", "rotation", "float"]),
    seed=st.integers(0, 50),
    i=st.integers(0, 29),
    j=st.integers(0, 29),
)
def test_memoised_holonomy_equals_a_fresh_one(kind, seed, i, j):
    space = SFTSpace.full_shift(2)
    c = {
        "pl": lambda: pl_dominated_cocycle(space, 1, 0.4, seed=seed),
        "rotation": lambda: rotation_cocycle(space, 1, seed=seed),
        "float": lambda: float_cocycle(pl_dominated_cocycle(space, 1, 0.4, seed=seed)),
    }[kind]()
    pts = homoclinic_points(SymbolicPoint.fixed(space, 0), 3)
    x, y = pts[i % len(pts)], pts[j % len(pts)]  # on one stable and one unstable set
    calls = [(hol, n0, a, b) for hol in (stable_holonomy, unstable_holonomy)
             for n0 in (1, 2) for a, b in ((x, y), (y, x))]
    for _ in range(2):  # every call of the second round is a hit
        for hol, n0, a, b in calls:
            got, want = hol(c, a, b, n0=n0), _fresh(hol, c, a, b, n0)
            assert got == want
            assert (got.n_used, got.cauchy_tail, got.gamma_bound) == (
                want.n_used, want.cauchy_tail, want.gamma_bound)
    assert len(c._cache["holonomy"]) == len(set(calls))


def test_memoised_holonomy_rechecks_its_tail(full2):
    c = float_cocycle(pl_dominated_cocycle(full2, 1, 0.4, seed=3))
    x0 = SymbolicPoint.fixed(full2, 0)
    y = next(y for y in homoclinic_points(x0, 3) if stable_holonomy(c, x0, y).cauchy_tail > 0)
    tol = stable_holonomy(c, x0, y).cauchy_tail / 2
    assert ("s", 1, x0, y) in c._cache["holonomy"]
    with pytest.raises(NoConvergence, match="residual tail") as hit:
        stable_holonomy(c, x0, y, tol)
    c._cache.clear()
    with pytest.raises(NoConvergence) as fresh:
        stable_holonomy(c, x0, y, tol)
    assert str(hit.value) == str(fresh.value)


def test_holonomy_memo_is_emptied_when_full(full2, monkeypatch):
    from cocyclelab import cocycles

    monkeypatch.setattr(cocycles, "ORBIT_MEMO_CAP", 3)
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=3)
    x0 = SymbolicPoint.fixed(full2, 0)
    ys = homoclinic_points(x0, 3)[:4]
    for y in ys[:3]:
        stable_holonomy(c, x0, y)
    memo = c._cache["holonomy"]
    stable_holonomy(c, x0, ys[0])  # a hit adds nothing
    assert list(memo) == [("s", 1, x0, y) for y in ys[:3]]
    stable_holonomy(c, x0, ys[3])
    assert list(memo) == [("s", 1, x0, ys[3])]


def test_result_invariants(full2, rng):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=3)
    x0 = SymbolicPoint.fixed(full2, 0)
    for y in homoclinic_points(x0, 3)[:12]:
        res = stable_holonomy(c, x0, y)
        assert 0 < res.gamma_bound < float(c.alpha)
        if y != x0:
            assert res.distance_alpha_ratio is not None


# --------------------------------------------------------------------- axioms


def test_axioms_trivial_cases(full2):
    c = constant_cocycle(full2, blend_with_identity(fb_family(Fraction(1, 3)), Fraction(1, 2)))
    x = SymbolicPoint.fixed(full2, 0)
    rep = verify_holonomy_axioms(c, [(x, x, x)], tol=0)
    assert rep.passed and rep.max_composition_residual == 0


def test_axioms_rotation_triples(full2, rng):
    c = rotation_cocycle(full2, 1, seed=8)
    x0 = SymbolicPoint.fixed(full2, 0)
    pts = homoclinic_points(x0, 3)
    triples = [(pts[1], pts[5], pts[9]), (pts[0], pts[2], pts[17])]
    rep = verify_holonomy_axioms(c, triples, tol=1e-9)
    assert rep.passed


def test_axioms_pl_triples_both_sides(full2):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=3)
    x0 = SymbolicPoint.fixed(full2, 0)
    pts = homoclinic_points(x0, 3)
    triples = [(pts[2], pts[7], pts[11]), (pts[1], pts[3], pts[19])]
    for side in ("s", "u"):
        rep = verify_holonomy_axioms(c, triples, tol=1e-6, side=side)
        assert rep.passed, (side, rep)


_AXIOM_POOLS = {
    name: homoclinic_points(SymbolicPoint.fixed(space, 0), 3)
    for name, space in (("full2", SFTSpace.full_shift(2)), ("golden", SFTSpace.golden_mean()))
}


@given(
    st.sampled_from(sorted(_AXIOM_POOLS)), st.integers(0, 10_000), st.integers(0, 1),
    st.sampled_from(["s", "u"]), st.lists(st.integers(0, 41), min_size=3, max_size=3),
)
@settings(max_examples=24, deadline=None)
def test_axioms_hold_exactly_property(name, seed, window, side, picks):
    pool = _AXIOM_POOLS[name]
    c = pl_dominated_cocycle(pool[0].space, window, 0.4, seed=seed)
    # homoclinic points of one fixed point share its stable and unstable sets
    triple = tuple(pool[i % len(pool)] for i in picks)
    rep = verify_holonomy_axioms(c, [triple], tol=0, side=side)
    assert rep.max_composition_residual == 0 and rep.max_equivariance_residual == 0


@given(
    st.sampled_from(sorted(_AXIOM_POOLS)), st.integers(0, 10_000), st.integers(0, 10_000),
    st.integers(0, 1), st.integers(0, 1), st.sampled_from(["s", "u"]),
    st.lists(st.integers(0, 41), min_size=3, max_size=3),
)
@settings(max_examples=8, deadline=None)
def test_transport_laws_property(name, seed_f, seed_g, window_f, window_g, side, picks):
    pool = _AXIOM_POOLS[name]
    F = pl_dominated_cocycle(pool[0].space, window_f, 0.4, seed=seed_f)
    G = pl_dominated_cocycle(pool[0].space, window_g, 0.4, seed=seed_g)
    x, y, z = (pool[i % len(pool)] for i in picks)
    rng = np.random.default_rng(seed_f + seed_g)
    u, v = random_plmap(rng), random_plmap(rng)

    def move(a, b, value, c1=F, c2=G):
        return transport(c1, c2, a, b, side, value)

    # groupoid law, round trip and the trivial transport
    at_y = move(x, y, v)
    assert move(y, z, at_y) == move(x, z, v)
    assert move(y, x, at_y) == v
    assert move(x, y, None, F, F) == PLMap.identity()
    # the order of the legs: h^F on the left, h^G on the right, so composing
    # an F-to-G and a G-to-F transport is one F-to-F transport
    assert move(x, y, compose(u, v), F, F) == compose(
        move(x, y, u, F, G), move(x, y, v, G, F)
    )


def test_holonomy_diagnostics_are_lazy(full2, monkeypatch):
    calls = []

    def counting(f, g):
        calls.append(1)
        return uniform_distance(f, g)

    monkeypatch.setattr(holonomy, "uniform_distance", counting)
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=3)
    x0 = SymbolicPoint.fixed(full2, 0)
    pts = homoclinic_points(x0, 3)[1:9]
    results = [stable_holonomy(c, x0, y) for y in pts]
    assert len(calls) == len(results)  # the tail certificate only
    for y, res in zip(pts, results):
        # the formula the result used to evaluate eagerly
        d_id = float(uniform_distance(res.map, PLMap.identity()))
        d_xy = float(distance(x0, y))
        ratio = d_id / d_xy ** float(c.alpha) if d_xy > 0 else None
        assert res.distance_alpha_ratio == ratio
        assert res.identity_distance == d_id
    assert len(calls) == 2 * len(results)  # one identity distance each, then cached


def test_shifted_pair_consistency(full2):
    # h_{xy} equals the generator-conjugated holonomy of the shifted pair
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=3)
    x0 = SymbolicPoint.fixed(full2, 0)
    y = homoclinic_points(x0, 3)[7]
    h = stable_holonomy(c, x0, y).map
    h_shift = stable_holonomy(c, x0.shift(1), y.shift(1)).map
    fy = c.generator(y)
    fx = c.generator(x0)
    lhs = compose(invert(fy), compose(h_shift, fx))
    assert float(uniform_distance(lhs, h)) <= 1e-12


def four_iterate_holonomy(c, x, y, side, n_used, n0):
    """The holonomy and its tail from four products started from scratch,
    with backward products as inverses of forward ones."""
    def product(p, n):
        return iterate(c, p, n) if n >= 0 else invert(iterate(c, p.shift(n), -n))

    sign = 1 if side == "s" else -1
    h = compose(invert(product(y, sign * n_used)), product(x, sign * n_used))
    h2 = compose(invert(product(y, sign * (n_used + n0))), product(x, sign * (n_used + n0)))
    return h, float(uniform_distance(h, h2))


@pytest.mark.parametrize("n0", [1, 2])
def test_one_pass_holonomy_matches_four_iterates(full2, n0):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=3)
    x0 = SymbolicPoint.fixed(full2, 0)
    pts = homoclinic_points(x0, 3)
    pairs = [(x0, y) for y in pts[::10]] + [(pts[1], pts[6]), (pts[4], pts[13])]
    for side, hol in (("s", stable_holonomy), ("u", unstable_holonomy)):
        for x, y in pairs:
            res = hol(c, x, y, n0=n0)
            h, tail = four_iterate_holonomy(c, x, y, side, res.n_used, n0)
            assert res.map == h
            assert res.cauchy_tail == tail == 0.0
    # exact tails vanish; float forward products round the same way on both
    # routes, so the rounding-level tails must agree bit for bit
    cf = float_cocycle(c)
    tails = []
    for x, y in pairs:
        res = stable_holonomy(cf, x, y, n0=n0)
        h, tail = four_iterate_holonomy(cf, x, y, "s", res.n_used, n0)
        assert res.map == h and res.cauchy_tail == tail
        tails.append(tail)
    assert max(tails) > 0


def limit_pair(kind, rnd):
    """(A, B) over the full 2-shift: rotation tables over small coprime
    denominators or over ones whose lcm is at least 2**53, PL tables, or a
    rotation table and a float one."""
    space = SFTSpace.full_shift(2)
    if kind == "pl":
        return pl_dominated_cocycle(space, 1, 0.4, seed=3), pl_dominated_cocycle(space, 0, 0.4, seed=5)
    dens = (2**61 - 1, 3**35) if kind == "rotation-wide" else (7, 12)
    A, B = (random_rotation_table(space, w, q, rnd) for w, q in zip((1, 0), dens))
    return (A, float_cocycle(B)) if kind == "rotation-float" else (A, B)


@given(
    st.sampled_from(("rotation", "rotation-wide", "pl", "rotation-float")), st.sampled_from("su"),
    st.integers(0, 6), st.integers(1, 2), st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_limit_tail_is_the_uniform_distance(kind, side, start, n0, seed):
    # unrelated x and y: the quotients have not stabilised, so tails are not 0
    rnd, rng = random.Random(seed), np.random.default_rng(seed)
    A, B = limit_pair(kind, rnd)
    x, y = random_point(A.space, rng), random_point(A.space, rng)
    h, n_used, tail = holonomy._limit((A, y, B, x), side, lambda: start, n0, math.inf,
                                      lambda: "limit", {}, None)
    sign = 1 if side == "s" else -1
    want, after = quotients(A, y, B, x, (sign * n_used, sign * (n_used + n0)))
    assert n_used % n0 == 0 and start <= n_used < start + n0
    assert h == want and tail == float(uniform_distance(want, after))
    if kind == "rotation-wide":
        assert quotient_numerators(A, y, B, x, (0,))[0] >= 2**53


def test_limit_tails_cover_both_halves_of_the_circle():
    # the arc distance of d / den is (den - d) / den past one half
    rnd, tails = random.Random(1), []
    for kind in ("rotation", "rotation-wide"):
        A, B = limit_pair(kind, rnd)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            x, y = random_point(A.space, rng), random_point(A.space, rng)
            den, (q, q_next) = quotient_numerators(A, y, B, x, (3, 4))
            tails.append(((q - q_next) % den > den // 2,
                          holonomy._limit((A, y, B, x), "s", lambda: 3, 1, math.inf,
                                          lambda: "limit", {}, None)[2]))
    assert {past for past, _ in tails} == {True, False} and all(t <= 0.5 for _, t in tails)


def test_float_holonomies_track_exact(full2):
    # A float compose or invert may merge slopes that differ by SLOPE_EPS
    # (relative) and drop segments shorter than SEGMENT_EPS; either moves lift
    # values by at most (SLOPE_EPS + SEGMENT_EPS) * lam**n on an n-step product
    # whose slopes and inverse slopes are at most lam**n.  A holonomy built
    # from products of length n = n_used + 1 makes at most 4(n + 1) such
    # operations, and the steps after an error amplify it by at most lam**n.
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=9)
    cf = float_cocycle(c)
    lam = max(max(float(m.max_slope), 1.0 / float(m.min_slope)) for m in c.table.values())
    x0 = SymbolicPoint.fixed(full2, 0)
    for y in homoclinic_points(x0, 4)[::12]:
        for hol in (stable_holonomy, unstable_holonomy):
            exact, approx = hol(c, x0, y), hol(cf, x0, y)
            assert approx.n_used == exact.n_used
            n = exact.n_used + 1
            bound = 4 * (n + 1) * (SLOPE_EPS + SEGMENT_EPS) * lam ** (2 * n)
            as_float = PLMap.make([float(b) for b in exact.map.breaks],
                                  [float(v) for v in exact.map.vals])
            assert float(uniform_distance(as_float, approx.map)) <= bound


# ----------------------------------------------------------- convergence table


def test_table_constant_cocycle_all_zero(full2):
    c = constant_cocycle(full2, fb_family(Fraction(1, 4)))  # table needs no domination
    x = SymbolicPoint.fixed(full2, 0)
    y = SymbolicPoint.make(full2, (0,), (1,), (0,), 0)
    table = holonomy_convergence_table(c, x, y, 10)
    assert all(inc == 0 for _, inc, _ in table.rows)
    assert table.decaying and table.slope is None


def test_table_staircase_rate(full2):
    theta = 0.4
    coc, x, y = staircase_cocycle(26, theta)
    table = holonomy_convergence_table(coc, x, y, 24)
    target = -theta * math.log(2)
    assert table.slope == pytest.approx(target, rel=0.15)
    assert table.decaying
    for _, inc, bound in table.rows:
        assert inc <= bound + 1e-12


def test_table_staircase_increment_oracle():
    # increments are exactly the encoded per-level angle gaps
    theta, amp = 0.4, 0.1
    coc, x, y = staircase_cocycle(12, theta, amp)
    table = holonomy_convergence_table(coc, x, y, 10)
    for n, inc, _ in table.rows:
        assert inc == pytest.approx(amp * 2 ** (-theta * n), abs=1e-12)


def test_table_non_dominated_flagged(full2):
    c = expanding_cocycle(full2, slope=4.0)
    x = SymbolicPoint.fixed(full2, 0)
    y = SymbolicPoint.make(full2, (0,), (1, 0, 1, 1, 0, 1), (0,), 0)
    table = holonomy_convergence_table(c, x, y, 5)
    assert not table.decaying


# --------------------------------------------------------- identity bound in C


def test_identity_distance_bound_fit_and_certify(full2):
    c = pl_dominated_cocycle(full2, 1, 0.4, seed=3)
    mu = MarkovMeasure.uniform(full2)
    rng = np.random.default_rng(17)
    ratios = []
    for x in sample_measure(mu, 100, seed=23, depth=24):
        y = resample_past(mu, x, rng, depth=16)
        res = stable_holonomy(c, x, y)
        if res.distance_alpha_ratio is not None:
            ratios.append(res.distance_alpha_ratio)
    assert len(ratios) >= 90
    fit, fresh = ratios[:50], ratios[50:]
    frozen = 1.15 * max(fit)
    assert max(fresh) <= frozen
    dom = check_domination(c)
    c_theory = holder_const_cocycle(c) * 2 ** (1 - dom.theta_s) / (1 - 2 ** (-dom.theta_s))
    assert max(ratios) <= c_theory
