import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cocyclelab import (
    PLMap,
    circle_norm,
    compose,
    fb_family,
    holder_constant,
    invert,
    lipschitz_metric,
    lipschitz_seminorm_diff,
    metric_report,
    uniform_distance,
)
from cocyclelab import circlemaps
from cocyclelab.circlemaps import (
    SLOPE_EPS,
    _contains_half_integer,
    _exact_corners,
    rotation_arc,
    rotation_numerators,
)
from cocyclelab.errors import InvalidExponent, ResourceLimit
from cocyclelab.fixtures import random_plmap

from conftest import blend_with_identity


def grid(n=1000):
    return [Fraction(i, n) for i in range(n)]


# ----------------------------------------------------------------- composition


def test_compose_rotations():
    r = compose(PLMap.rotation(Fraction(1, 4)), PLMap.rotation(Fraction(1, 2)))
    assert r == PLMap.rotation(Fraction(3, 4))


def test_compose_identity(rng):
    f = random_plmap(rng, 4)
    assert compose(f, PLMap.identity()) == f
    assert compose(PLMap.identity(), f) == f


def test_compose_pointwise_oracle(rng):
    # the canonical lift of the composition may differ from the pointwise
    # composed lifts by a fixed integer; on the circle they are identical
    for _ in range(20):
        f = random_plmap(rng, int(rng.integers(2, 6)))
        g = random_plmap(rng, int(rng.integers(2, 6)))
        gf = compose(g, f)
        offset = gf(Fraction(0)) - g(f(Fraction(0)))
        assert offset.denominator == 1  # integer lift shift
        for p in grid(200):
            assert gf(p) - g(f(p)) == offset  # exact in rational mode


def test_compose_pointwise_oracle_float(rng):
    f = random_plmap(rng, 4, exact=False)
    g = random_plmap(rng, 5, exact=False)
    gf = compose(g, f)
    offset = round(gf(0.0) - g(f(0.0)))
    worst = max(
        abs(gf(p) - g(f(p)) - offset) for p in np.linspace(0, 1, 1000, endpoint=False)
    )
    assert worst <= 1e-12


# ------------------------------------------------------------------- inversion


def test_plmap_is_slotted_on_its_breaks_and_vals(rng):
    f = random_plmap(rng)
    g = PLMap.make(f.breaks, f.vals)
    f.slopes
    assert f == g and hash(f) == hash(g) and not hasattr(f, "__dict__")
    assert PLMap.__slots__ == ("breaks", "vals")
    # an exact rotation's slope is exactly 1
    r = PLMap.rotation(Fraction(2, 7))
    assert r.slopes == (Fraction(1),) and type(r.max_slope) is Fraction


def test_invert_identity_and_rotation():
    assert invert(PLMap.identity()) == PLMap.identity()
    r = Fraction(3, 10)
    assert invert(PLMap.rotation(r)) == PLMap.rotation(1 - r)


def test_invert_fb_slopes():
    f = fb_family(Fraction(1, 4))
    assert f.slopes == (Fraction(3, 2), Fraction(1, 2), Fraction(1))
    g = invert(f)
    # oracle: reciprocal slopes on the image intervals
    assert sorted(g.slopes) == [Fraction(2, 3), Fraction(1), Fraction(2)]
    assert compose(g, f) == PLMap.identity()
    assert float(g.max_slope) == 1 / float(f.min_slope)


def test_invert_roundtrip_random(rng):
    for _ in range(15):
        f = random_plmap(rng, 5)
        assert compose(invert(f), f) == PLMap.identity()


# --------------------------------------------------------------------- metrics


def test_uniform_distance_basic(rng):
    f = random_plmap(rng, 4)
    assert uniform_distance(f, f) == 0
    assert uniform_distance(PLMap.identity(), PLMap.rotation(Fraction(1, 10))) == Fraction(1, 10)


def test_uniform_distance_grid_oracle():
    f = fb_family(Fraction(1, 8))
    g = fb_family(Fraction(3, 8))
    exact = uniform_distance(f, g)
    brute = max(circle_norm(f(p) - g(p)) for p in grid(3000))
    assert abs(float(exact) - float(brute)) <= 1e-12
    assert exact >= brute  # sup attained on the merged breakpoints


def test_uniform_distance_antipodal_cap():
    # half-turn rotation sits at the diameter: distance is exactly 1/2
    assert uniform_distance(PLMap.identity(), PLMap.rotation(Fraction(1, 2))) == Fraction(1, 2)


def test_lipschitz_constants():
    assert PLMap.identity().max_slope == 1
    assert PLMap.rotation(0.3).max_slope == 1.0
    assert fb_family(Fraction(1, 4)).max_slope == Fraction(3, 2)


def test_seminorm_diff():
    f = fb_family(Fraction(1, 5))
    assert lipschitz_seminorm_diff(f, f) == 0
    assert lipschitz_seminorm_diff(PLMap.identity(), PLMap.rotation(Fraction(1, 7))) == 0
    g = fb_family(Fraction(2, 5))
    assert lipschitz_seminorm_diff(f, g) == 1  # slopes 1/2 vs 3/2 on (b, b')
    assert lipschitz_seminorm_diff(f, g) > Fraction(1, 2)


def test_metric_report_consistency(rng):
    f, g = random_plmap(rng, 4), random_plmap(rng, 4)
    rep = metric_report(f, g)
    assert rep.d_1 == rep.d_inf + rep.lip_seminorm_diff
    assert rep.d_max >= rep.d_1
    assert rep.d_max == max(rep.d_1, lipschitz_metric(invert(f), invert(g)))


def test_rotation_numerators_accepts_only_exact_rotations():
    rots = [PLMap.rotation(Fraction(1, 6)), PLMap.rotation(Fraction(3, 4)), PLMap.identity()]
    by_id = {id(m): num for m, num in zip(rots, (2, 9, 0))}
    assert rotation_numerators(rots) == (12, by_id)
    assert rotation_numerators(iter(rots)) == (12, by_id)
    assert rotation_numerators([]) == (1, {})
    # one entry per map object: the same object twice is read once, and two
    # equal objects are two entries with one numerator
    r, twin = PLMap.rotation(Fraction(2, 5)), PLMap.rotation(Fraction(2, 5))
    assert r == twin and r is not twin
    assert rotation_numerators([r, r]) == (5, {id(r): 2})
    assert rotation_numerators([r, twin]) == (5, {id(r): 2, id(twin): 2})
    pl = fb_family(Fraction(1, 4))
    float_pl = PLMap.make([float(b) for b in pl.breaks], [float(v) for v in pl.vals])
    for maps in ([PLMap.rotation(0.25)], [pl], [float_pl], rots + [pl],
                 [PLMap.rotation(0.5)] + rots):
        assert rotation_numerators(maps) is None


@given(st.integers(2**53, 2**200), st.integers(0, 2**200), st.integers(0, 2**200),
       st.integers(1, 2**20))
@example(2**54, 2**53 + 1, 0, 1)
@example(1134472513743130210384403, 339396679542664798367486, 0, 1)  # a float quotient rounds twice
@settings(max_examples=200)
def test_rotation_arc_is_the_float_uniform_distance(den, a, b, scale):
    a, b = a % den, b % den
    want = float(uniform_distance(PLMap.rotation(Fraction(a, den)), PLMap.rotation(Fraction(b, den))))
    assert rotation_arc(a - b, den) == rotation_arc(b - a, den) == want
    # the same angles over an unreduced denominator
    assert rotation_arc((a - b) * scale, den * scale) == want


# ------------------------------------------------------------- Holder constant


def test_holder_exponent_validation():
    with pytest.raises(InvalidExponent):
        holder_constant(PLMap.identity(), 0)
    with pytest.raises(InvalidExponent):
        holder_constant(PLMap.identity(), 1.5)


def test_holder_beta_one_is_slope():
    assert holder_constant(PLMap.identity(), 1) == 1
    assert holder_constant(PLMap.rotation(0.2), 1) == 1.0
    assert holder_constant(fb_family(Fraction(1, 4)), 1) == Fraction(3, 2)


def test_holder_refinement_stops_at_its_cell_cap(monkeypatch):
    from cocyclelab import circlemaps

    monkeypatch.setattr(circlemaps, "HOLDER_CELL_CAP", 1)
    with pytest.raises(ResourceLimit, match="exceeded cell cap 1$"):
        holder_constant(fb_family(Fraction(1, 4)), 0.5)


def test_holder_random_chord_oracle():
    f = fb_family(Fraction(1, 4))
    tol = 1e-4
    cert = holder_constant(f, 0.5, tol=tol)
    rng = np.random.default_rng(1)
    ps = rng.random(1_000_000)
    ts = rng.random(1_000_000) * 0.5
    fp = np.array([float(v) for v in (f(float(p)) for p in ps[:0])])  # placeholder
    # vectorised brute force on the float copy
    fl = PLMap.make([float(b) for b in f.breaks], [float(v) for v in f.vals])
    vals = np.empty(len(ps))
    for i, (p, t) in enumerate(zip(ps, ts)):
        if t == 0:
            vals[i] = 0
            continue
        d = (fl(p + t) - fl(p)) % 1.0
        vals[i] = min(d, 1 - d) / t**0.5
    brute = float(vals.max())
    assert brute <= cert + 1e-12
    assert cert <= brute + 5e-3  # certified value exceeds the sup by at most tol (plus sampling slack)


def test_holder_pruning_bound_reaches_an_interior_supremum():
    """For fb_{1/10} at beta 1/2 the supremum lies on a chord ending at the
    breakpoint 1/10 from inside a segment.  The candidate chords miss it, so
    the certificate rests on the cells the (lmax - lmin) bound keeps."""
    f = fb_family(Fraction(1, 10))
    p, t = Fraction(-673, 2500), Fraction(923, 2500)  # best chord on a 1/10000 grid
    assert p + t == Fraction(1, 10)
    witness = float(circle_norm(f(p + t) - f(p))) / float(t) ** 0.5
    cert = holder_constant(f, 0.5, tol=1e-6)
    assert witness <= cert <= witness + 1e-4


# ---------------------------------------------------------------- fb family


def test_fb_junctions_exact():
    b = Fraction(1, 4)
    f = fb_family(b)
    assert f(b) == Fraction(3, 2) * b
    assert f(Fraction(1, 2)) == Fraction(1, 4) + b  # both one-sided formulas agree
    assert f(Fraction(1)) == 1  # degree-1 lift
    assert f(Fraction(0)) == 0


def test_fb_rejects_bad_parameter():
    with pytest.raises(ValueError):
        fb_family(Fraction(1, 2))
    with pytest.raises(ValueError):
        fb_family(0)


# ------------------------------------------------------------- group structure


@st.composite
def plmaps(draw, exact=None):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(1, 5))
    if exact is None:
        exact = draw(st.booleans())
    return random_plmap(np.random.default_rng(seed), n, exact)


@given(plmaps(), plmaps(), plmaps())
@settings(max_examples=60, deadline=None)
def test_metric_algebra_properties(f, g, h):
    # right-composition invariance, left bound, chain bound
    tol = 0 if (f.is_exact and g.is_exact and h.is_exact) else 1e-12
    lhs = uniform_distance(compose(g, f), compose(h, f))
    assert abs(float(lhs - uniform_distance(g, h))) <= tol
    left = uniform_distance(compose(f, g), compose(f, h))
    assert float(left) <= float(f.max_slope * uniform_distance(g, h)) + tol
    assert float(compose(g, f).max_slope) <= float(g.max_slope * f.max_slope) + tol


@given(plmaps(), plmaps())
@settings(max_examples=60, deadline=None)
def test_group_closure(f, g):
    for m in (compose(g, f), invert(f)):
        assert all(0 <= b < 1 for b in m.breaks)
        assert all(v2 > v1 for v1, v2 in zip(m.vals, m.vals[1:]))
        assert m.min_slope > 0


@given(plmaps(exact=True), plmaps(exact=True), plmaps(exact=True))
@settings(max_examples=60, deadline=None)
def test_compose_associative(f, g, h):
    assert compose(compose(h, g), f) == compose(h, compose(g, f))


@given(plmaps(exact=True))
@settings(max_examples=60, deadline=None)
def test_invert_round_trip(f):
    inv = invert(f)
    assert compose(f, inv) == PLMap.identity() == compose(inv, f)


@st.composite
def exact_angle_pairs(draw):
    """Canonical exact angles, sharing a denominator or with unrelated ones."""
    dens = st.integers(1, 10**12)
    d1 = draw(dens)
    d2 = d1 if draw(st.booleans()) else draw(dens)
    return (Fraction(draw(st.integers(0, d1 - 1)), d1), Fraction(draw(st.integers(0, d2 - 1)), d2))


@given(exact_angle_pairs())
@example((Fraction(0), Fraction(0)))
@example((Fraction(1, 2), Fraction(1, 2)))  # the sum is exactly 1
@example((Fraction(3, 4), Fraction(2, 3)))  # wraps past 1, unrelated denominators
@example((Fraction(10**12 - 1, 10**12), Fraction(10**12 - 12, 10**12 - 11)))  # coprime, large
@settings(max_examples=200, deadline=None)
def test_rotation_branches_match_fraction_arithmetic(pair):
    a, b = pair
    R = PLMap.rotation
    c = compose(R(a), R(b))
    total = (a + b) % 1
    assert c == R(a + b)
    assert type(c.vals[0]) is Fraction and 0 <= c.vals[0] < 1
    assert (c.vals[0].numerator, c.vals[0].denominator) == (total.numerator, total.denominator)
    assert invert(R(a)) == R(-a)
    d = uniform_distance(R(a), R(b))
    assert type(d) is Fraction and d == circle_norm(a - b)
    # float and mixed pairs keep the float expressions
    fa, fb = float(a), float(b)
    for x, y in ((fa, fb), (a, fb), (fa, b)):
        assert compose(R(x), R(y)).vals == ((x + y) % 1,)
        d = uniform_distance(R(x), R(y))
        assert type(d) is float and d == circle_norm(x - y)
    assert invert(R(fa)).vals == (-fa % 1,)


def test_float_angle_just_below_an_integer_folds_to_zero():
    # -1e-17 % 1 rounds to 1.0 in IEEE arithmetic; on the circle it is 0
    zero = PLMap.rotation(0.0)
    assert PLMap.rotation(-1e-17) == zero
    assert invert(PLMap.rotation(1e-17)) == zero
    assert compose(PLMap.rotation(0.1), PLMap.rotation(-1e-17)).vals == (0.1,)
    f = PLMap.make([0.0, 0.5], [-1e-17, 0.6])
    assert f.vals[0] == 0.0 and abs(f.vals[1] - 0.6) < 1e-15
    assert PLMap.make([1e-17], [0.0]) == zero


def test_d1_triangle_inequality(rng):
    maps = [random_plmap(rng, 3) for _ in range(6)]
    for f in maps:
        for g in maps:
            for h in maps:
                assert lipschitz_metric(f, h) <= lipschitz_metric(f, g) + lipschitz_metric(g, h)


def test_blend_with_identity():
    f = fb_family(Fraction(1, 4))
    assert blend_with_identity(f, 1) == PLMap.identity()
    assert blend_with_identity(f, 0) == f
    half = blend_with_identity(f, Fraction(1, 2))
    assert half.max_slope < f.max_slope


# ------------------------------------------------------------------------ JSON


def test_json_roundtrip_exact_and_float(rng):
    f = random_plmap(rng, 4, exact=True)
    doc = f.to_json()
    assert isinstance(doc["breakpoints"][0], list)  # numerator/denominator pairs
    assert PLMap.from_json(doc) == f
    g = random_plmap(rng, 4, exact=False)
    assert PLMap.from_json(g.to_json()) == g


def test_float_pruning_merges_tiny_segments():
    f = PLMap.make((0.0, 0.3, 0.3 + 1e-15), (0.1, 0.5, 0.5 + 1e-15))
    assert len(f.breaks) <= 2


def test_make_canonical_lift_when_first_breakpoint_merges():
    # 0 is not a breakpoint of f, and f(0) = -1/8: make merges the cut at 0
    # away, and the lift must still start in [0, 1) so that one map has one
    # representation
    f = PLMap.make((Fraction(1, 4), Fraction(3, 4)), (0, Fraction(3, 4)))
    g = PLMap.make((0, Fraction(1, 4), Fraction(3, 4)), (Fraction(-1, 8), 0, Fraction(3, 4)))
    assert g.vals == f.vals == (0, Fraction(3, 4))
    assert g == f and hash(g) == hash(f)
    assert compose(f, PLMap.identity()) == f
    assert compose(invert(f), PLMap.identity()) == invert(f)


def test_make_rejects_bad_maps():
    with pytest.raises(ValueError):
        PLMap.make((0.0, 0.5), (0.2, 0.1))  # decreasing
    with pytest.raises(ValueError):
        PLMap.make((0.5, 0.2), (0.1, 0.2))  # unsorted breakpoints
    with pytest.raises(ValueError):
        PLMap.make((0.0, 1.5), (0.0, 0.5))  # breakpoint outside [0,1)
    # a non-finite coordinate is refused before any other check, in either list
    for bad in (math.nan, math.inf, -math.inf):
        for breaks, vals in (([0.0, 0.5], [bad, 0.5]), ([0.0, bad], [0.0, 0.5]),
                             ([bad], [0.0]), ([0.0], [bad]), ([0, Fraction(1, 2)], [0, bad])):
            with pytest.raises(ValueError, match="coordinates must be finite"):
                PLMap.make(breaks, vals)


@pytest.mark.parametrize("num", [Fraction, float])
def test_make_names_the_first_nonpositive_slope(num):
    increasing, wrap = "lift values must be strictly increasing", "wrap segment must have positive slope"
    cases = [
        ((0, "1/4", "1/2"), (0, "1/4", "1/8"), increasing),  # a negative interior slope
        ((0, "1/2"), (0, "5/4"), wrap),  # a negative wrap slope
        ((0, "1/4", "1/2"), ("1/2", "1/4", 2), increasing),  # both bad: the interior one is named
    ]
    if num is Fraction:  # float mode prunes a rise shorter than SEGMENT_EPS as rounding noise
        cases += [((0, "1/4", "1/2"), (0, "1/4", "1/4"), increasing),  # a zero interior slope
                  ((0, "1/2"), (0, 1), wrap)]  # a zero wrap slope
    for breaks, vals, message in cases:
        with pytest.raises(ValueError, match=message):
            PLMap.make([num(Fraction(b)) for b in breaks], [num(Fraction(v)) for v in vals])


# ----------------------------------------------------------- reference kernels
#
# The loops below are the earlier kernels, kept as oracles: the merge dropped
# the first collinear point and recomputed every slope, and the seminorm
# evaluated both maps at both ends of every cell of the merged partition.
# The exact composition inverted inner and evaluated outer(inner(x)) at every
# cut, and the uniform distance evaluated both maps at every merged
# breakpoint, each evaluation by bisection and Fraction arithmetic.


def reference_compose(outer, inner):
    if outer.is_rotation and inner.is_rotation:
        return PLMap.rotation(outer.vals[0] + inner.vals[0])
    cuts = set(inner.breaks)
    inv = invert(inner)
    for c in outer.breaks:
        u = inv(c)
        cuts.add(u - math.floor(u))
    breaks = sorted(cuts)
    return PLMap.make(breaks, [outer(inner(x)) for x in breaks])


def reference_uniform_distance(f, g):
    if f.is_rotation and g.is_rotation:
        return circle_norm(f.vals[0] - g.vals[0])
    pts = sorted(set(f.breaks) | set(g.breaks))
    diffs = [f(p) - g(p) for p in pts]
    best = max(circle_norm(d) for d in diffs)
    half = Fraction(1, 2) if (f.is_exact and g.is_exact) else 0.5
    ring = diffs + [diffs[0]]  # difference of lifts is 1-periodic
    for d1, d2 in zip(ring, ring[1:]):
        if _contains_half_integer(d1, d2):
            return half
    return best


def reference_merge_collinear(breaks, vals, exact):
    while len(breaks) > 1:
        slopes = PLMap(breaks, vals).slopes
        drop = None
        for i in range(len(breaks)):
            s_in, s_out = slopes[i - 1], slopes[i]
            if exact:
                same = s_in == s_out
            else:
                same = abs(s_in - s_out) <= SLOPE_EPS * max(1.0, abs(s_in))
            if same:
                drop = i
                break
        if drop is None:
            return breaks, vals
        breaks = breaks[:drop] + breaks[drop + 1 :]
        vals = vals[:drop] + vals[drop + 1 :]
    return breaks, vals


def reference_seminorm_diff(f, g):
    pts = sorted(set(f.breaks) | set(g.breaks))
    pts.append(pts[0] + 1)
    best = 0
    for p, q in zip(pts, pts[1:]):
        sf = (f(q) - f(p)) / (q - p)
        sg = (g(q) - g(p)) / (q - p)
        best = max(best, abs(sf - sg))
    return best


def reference_make(breaks, vals):
    """The exact ``make`` before integer pairs: every slope a Fraction
    quotient, the checks on Fractions, then the collinear merge."""
    breaks, vals = tuple(map(Fraction, breaks)), tuple(map(Fraction, vals))
    if len(breaks) != len(vals) or not breaks:
        raise ValueError("breakpoints and values must be non-empty, equal length")
    if any(not (0 <= b < 1) for b in breaks):
        raise ValueError("breakpoints must lie in [0, 1)")
    if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    xs, ys = breaks + (breaks[0] + 1,), vals + (vals[0] + 1,)
    slopes = [(y2 - y1) / (x2 - x1) for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:])]
    if any(s <= 0 for s in slopes[:-1]):
        raise ValueError("lift values must be strictly increasing")
    if slopes[-1] <= 0:
        raise ValueError("wrap segment must have positive slope")
    keep = [i for i, s in enumerate(slopes) if slopes[i - 1] != s] or [len(breaks) - 1]
    breaks, vals = tuple(breaks[i] for i in keep), tuple(vals[i] for i in keep)
    k = math.floor(vals[0])
    vals = tuple(v - k for v in vals)
    if len(breaks) == 1:
        return PLMap.rotation(vals[0] - breaks[0])
    return PLMap(breaks, vals)


# grid points, so that ties, collinear runs and coordinates out of range are common
_COORD = st.one_of(st.builds(Fraction, st.integers(-30, 60), st.sampled_from((1, 2, 3, 5, 12, 30))),
                   st.integers(-1, 2))


@st.composite
def make_inputs(draw):
    """Exact coordinates for make, valid or not: raw lists, sorted lists, and
    lifts built from breakpoints and rises, whose wrap rise may be 0 or less."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("raw", "sorted", "lift", "lift", "lift")))
    if kind == "lift":
        den = draw(st.sampled_from((6, 8, 12)))
        breaks = [Fraction(b, den) for b in sorted(draw(st.sets(st.integers(0, den - 1),
                                                                min_size=n, max_size=n)))]
        rises = draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))
        total = sum(rises) + draw(st.integers(-1, 4))  # the wrap rises by total - sum(rises)
        v0 = draw(_COORD)
        vals = [v0 + Fraction(sum(rises[:i]), max(total, 1)) for i in range(len(breaks))]
        return breaks, vals
    breaks = draw(st.lists(_COORD, min_size=n, max_size=n))
    vals = draw(st.lists(_COORD, min_size=n, max_size=n))
    if kind == "sorted":
        breaks, vals = sorted(b % 1 for b in breaks), sorted(vals)
    if draw(st.integers(0, 9)) == 0:
        vals = vals[:-1]
    return breaks, vals


@given(make_inputs())
@example(([0, Fraction(1, 4), Fraction(1, 2)], [0, Fraction(1, 4), Fraction(1, 2)]))  # collinear
@example(([Fraction(1, 4), Fraction(1, 4)], [0, Fraction(1, 2)]))  # a tie
@example(([Fraction(1, 2)], [Fraction(7, 3)]))  # a rotation off the integers
@settings(max_examples=400, deadline=None)
def test_exact_make_matches_the_fraction_oracle(args):
    try:
        want = reference_make(*args)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            PLMap.make(*args)
        assert type(got.value) is type(e) and str(got.value) == str(e)
        return
    got = PLMap.make(*args)
    assert got == want and got.slopes == want.slopes
    assert all(type(t) is Fraction for t in got.breaks + got.vals)


@contextmanager
def merges_checked_against_reference():
    """Within the block, every float merge make runs is checked against the reference."""
    merge = circlemaps._merge_collinear

    def checked(breaks, vals, slopes):
        assert slopes == PLMap(breaks, vals).slopes, (breaks, vals)
        out = merge(breaks, vals, slopes)
        assert out == reference_merge_collinear(breaks, vals, False), (breaks, vals)
        return out

    circlemaps._merge_collinear = checked
    try:
        yield
    finally:
        circlemaps._merge_collinear = merge


@given(plmaps(exact=True), st.lists(st.fractions(0, 1).filter(lambda t: t < 1), max_size=6))
@example(PLMap.rotation(Fraction(1, 3)), [Fraction(1, 2), Fraction(2, 3)])  # every point collinear
@settings(max_examples=150, deadline=None)
def test_merge_drops_inserted_collinear_points(f, extra):
    # extra points on f's own segments are collinear with their neighbours
    breaks = tuple(sorted(set(f.breaks) | set(extra)))
    vals = tuple(f(t) for t in breaks)
    assert _exact_corners(breaks, vals) == reference_merge_collinear(breaks, vals, True)
    assert PLMap.make(breaks, vals) == f


@given(plmaps(), plmaps(exact=False), st.floats(0, 1, exclude_max=True))
@settings(max_examples=150, deadline=None)
def test_float_merge_matches_reference(f, g, angle):
    # compositions, inverses and rotation conjugates; about 30% of their merges drop points
    r = PLMap.rotation(angle)
    with merges_checked_against_reference():
        for m in (f, g):
            compose(g, f), compose(f, g), invert(m)
            compose(invert(r), compose(m, r))


@given(plmaps(exact=True), plmaps(exact=True), st.fractions(0, 1).filter(lambda t: t < 1))
@settings(max_examples=150, deadline=None)
def test_seminorm_diff_matches_reference(f, g, angle):
    r = PLMap.rotation(angle)
    for a, b in ((f, g), (f, f), (f, r), (r, PLMap.identity()), (compose(g, f), invert(f))):
        assert lipschitz_seminorm_diff(a, b) == reference_seminorm_diff(a, b)


R = PLMap.rotation


@st.composite
def exact_operands(draw):
    """Exact maps as the sweeps meet them: random maps, rotations, maps whose
    first lift value lies just below 1, and products and inverses."""
    f = draw(plmaps(exact=True))
    kind = draw(st.sampled_from(("map", "rotation", "near-one", "product", "inverse")))
    if kind == "rotation":
        return R(draw(st.fractions(0, 1).filter(lambda t: t < 1)))
    if kind == "near-one":
        eps = Fraction(1, draw(st.integers(2, 10**6)))
        return PLMap.make(f.breaks, [v + 1 - eps - f.vals[0] for v in f.vals])
    if kind == "product":
        return reference_compose(draw(plmaps(exact=True)), f)
    if kind == "inverse":
        return invert(f)
    return f


@given(exact_operands(), exact_operands())
@example(fb_family(Fraction(1, 4)), R(Fraction(1, 3)))  # rotation inner
@example(R(Fraction(2, 3)), fb_family(Fraction(1, 3)))  # rotation outer
@settings(max_examples=250, deadline=None)
def test_exact_sweeps_match_reference_kernels(f, g):
    for outer, inner in ((g, f), (f, g)):
        h = compose(outer, inner)
        assert h == reference_compose(outer, inner)
        assert h.breaks == reference_compose(outer, inner).breaks  # canonical lift included
    d = uniform_distance(f, g)
    assert type(d) is Fraction and d == reference_uniform_distance(f, g)
    assert uniform_distance(g, f) == d


def test_compose_coincident_cut_is_one_breakpoint():
    # fb(1/4) maps its breakpoints 0, 1/4, 1/2 to 0, 3/8, 1/2; outer breaks at
    # 3/8 and 1/2, so two of its cuts are inner breakpoints already
    inner = fb_family(Fraction(1, 4))
    outer = PLMap.make((0, Fraction(3, 8), Fraction(1, 2), Fraction(3, 4)),
                       (Fraction(1, 10), Fraction(1, 5), Fraction(3, 5), Fraction(4, 5)))
    h = compose(outer, inner)
    assert h == reference_compose(outer, inner)
    assert set(inner.breaks) <= set(h.breaks) and len(h.breaks) == 4  # 3/4 adds one preimage
    for t in grid(64):
        assert h(t) - outer(inner(t)) == h(0) - outer(inner(0))


def test_compose_cut_past_one_moves_down_a_period():
    # inner's lift covers [1/4, 5/4), and outer's breakpoint 0, lifted to 1,
    # has the preimage 11/10 there: the cut is 1/10 with its value moved down by 1
    inner = PLMap.make((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 8), Fraction(1, 2)))
    assert inner(1) == Fraction(11, 12) and inner(Fraction(11, 10)) == 1
    outer = fb_family(Fraction(1, 4))
    h = compose(outer, inner)
    assert h == reference_compose(outer, inner)
    assert Fraction(1, 10) in h.breaks
    assert h(Fraction(1, 10)) - outer(inner(Fraction(1, 10))) == h(0) - outer(inner(0))


def test_uniform_distance_half_turn_between_merged_points():
    # g(t) - t is 2/5 at 0 and 3/5 at 1/2, so the lift difference passes 1/2
    # inside the cell, though the arc distance at both points is 2/5
    g = PLMap.make((0, Fraction(1, 2)), (Fraction(2, 5), Fraction(11, 10)))
    identity = PLMap.identity()
    assert [circle_norm(g(t) - t) for t in (0, Fraction(1, 2))] == [Fraction(2, 5)] * 2
    for a, b in ((g, identity), (identity, g)):
        d = uniform_distance(a, b)
        assert type(d) is Fraction and d == Fraction(1, 2) == reference_uniform_distance(a, b)


def test_mixed_operands_keep_the_float_results(rng):
    f, g = random_plmap(rng, 4), random_plmap(rng, 5, exact=False)
    for a, b in ((f, g), (g, f), (f, R(0.25)), (R(0.25), f)):
        h = compose(a, b)
        assert not h.is_exact and h == reference_compose(a, b)
        d = uniform_distance(a, b)
        assert type(d) is float and d == reference_uniform_distance(a, b)
