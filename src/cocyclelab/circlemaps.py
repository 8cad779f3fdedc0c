"""Piecewise-linear orientation-preserving circle homeomorphisms.

Maps are stored through their degree-1 lifts: strictly increasing breakpoints
in [0, 1) and lift values at those breakpoints, with value(x+1) = value(x)+1.
Coordinates are either all Fractions (exact mode) or all floats; composition,
inversion and the metrics below are exact in exact mode.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidExponent, ResourceLimit

SEGMENT_EPS = 1e-14  # float mode: shorter segments are merged away
SLOPE_EPS = 1e-11  # float mode: slope changes below this are not breakpoints
HOLDER_CELL_CAP = 200_000  # chord-space cells holder_constant may refine
_ZERO = Fraction(0)
_ONE = Fraction(1)


def circle_norm(t):
    """Distance from t to the nearest integer (arc distance on the circle)."""
    frac = t % 1
    return min(frac, 1 - frac)


def _contains_half_integer(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    first = math.ceil(2 * lo)
    if first % 2 == 0:
        first += 1
    return first <= math.floor(2 * hi)


@dataclass(frozen=True, slots=True)
class PLMap:
    """Canonical PL circle homeomorphism (degree 1, positive slopes)."""

    breaks: tuple
    vals: tuple

    @classmethod
    def make(cls, breaks, vals) -> "PLMap":
        breaks, vals = tuple(breaks), tuple(vals)
        exact = not any(isinstance(x, float) for x in breaks + vals)
        num = Fraction if exact else float
        breaks, vals = (tuple(x if type(x) is num else num(x) for x in xs) for xs in (breaks, vals))
        if not exact and not all(map(math.isfinite, breaks + vals)):
            raise ValueError("coordinates must be finite")
        if len(breaks) != len(vals) or not breaks:
            raise ValueError("breakpoints and values must be non-empty, equal length")
        if exact:
            breaks, vals = _exact_corners(breaks, vals)
        else:
            _check_breaks(all(0 <= b < 1 for b in breaks),
                          all(b2 > b1 for b1, b2 in zip(breaks, breaks[1:])))
            breaks, vals = _drop_tiny_segments(breaks, vals)
            slopes = _slopes(breaks, vals)
            _check_rises(s > 0 for s in slopes)
            breaks, vals = _merge_collinear(breaks, vals, slopes)
        # normalise after the merge: it may drop the first breakpoint
        k = math.floor(vals[0])
        if k:
            vals = tuple(v - k for v in vals)
        if vals[0] == 1:  # a float just below an integer rounds up to it
            vals = tuple(v - 1 for v in vals)
        if len(breaks) == 1:
            return cls.rotation(vals[0] - breaks[0])
        return cls(breaks, vals)

    @classmethod
    def identity(cls) -> "PLMap":
        return cls((_ZERO,), (_ZERO,))

    @classmethod
    def rotation(cls, angle) -> "PLMap":
        if isinstance(angle, float):
            angle = float(angle) % 1  # -1e-17 % 1 rounds to 1.0, which is 0 on the circle
            return cls((0.0,), (angle if angle < 1 else 0.0,))
        if not isinstance(angle, Fraction):  # most callers pass Fractions
            angle = Fraction(angle)
        return cls((_ZERO,), (angle % 1,))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.breaks[0], Fraction)

    @property
    def is_rotation(self) -> bool:
        return len(self.breaks) == 1

    @property
    def angle(self):
        if not self.is_rotation:
            raise ValueError("not a rotation")
        return self.vals[0] % 1

    @property
    def slopes(self) -> tuple:
        return _slopes(self.breaks, self.vals)

    @property
    def max_slope(self):
        return max(self.slopes)

    @property
    def min_slope(self):
        return min(self.slopes)

    def __call__(self, t):
        """Lift value at t; satisfies f(t+1) = f(t)+1."""
        b, v = self.breaks, self.vals
        m = len(b)
        k = math.floor(t - b[0])
        u = t - k  # in [b0, b0+1)
        i = bisect.bisect_right(b, u) - 1
        x1, y1 = b[i], v[i]
        x2 = b[i + 1] if i + 1 < m else b[0] + 1
        y2 = v[i + 1] if i + 1 < m else v[0] + 1
        return y1 + (u - x1) * (y2 - y1) / (x2 - x1) + k

    def to_json(self) -> dict:
        if self.is_exact:
            return {
                "breakpoints": [[b.numerator, b.denominator] for b in self.breaks],
                "values": [[v.numerator, v.denominator] for v in self.vals],
            }
        return {"breakpoints": list(self.breaks), "values": list(self.vals)}

    @classmethod
    def from_json(cls, doc: dict) -> "PLMap":
        def load(field):
            return [_exact_coordinate(e) if isinstance(e, (list, tuple)) else _float_coordinate(e, field)
                    for e in doc[field]]

        return cls.make(load("breakpoints"), load("values"))


def _exact_coordinate(e) -> Fraction:
    """An exact coordinate written [numerator, denominator]: two ints, not
    bools, the denominator nonzero."""
    if len(e) != 2 or any(type(n) is not int for n in e) or not e[1]:
        raise ValueError(f"exact coordinate {list(e)!r}: expected [numerator, denominator], "
                         "two ints with a nonzero denominator")
    return Fraction(*e)


def _float_coordinate(e, field: str) -> float:
    """A float coordinate of ``field``: an int or a float, not a bool or a string."""
    if type(e) not in (int, float):
        raise ValueError(f"{field}: coordinate {e!r} is not a number or [numerator, denominator]")
    return float(e)


def _slopes(breaks: tuple, vals: tuple) -> tuple:
    """The slope of each segment of the lift through (breaks, vals), the last
    one wrapping to (breaks[0] + 1, vals[0] + 1).  An exact rotation's one
    slope is exactly 1 (a float one can round to 1 - 2**-53)."""
    if len(breaks) == 1 and type(breaks[0]) is Fraction:
        return (_ONE,)
    xs, ys = breaks + (breaks[0] + 1,), vals + (vals[0] + 1,)
    return tuple((y2 - y1) / (x2 - x1) for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:]))


def _drop_tiny_segments(breaks, vals):
    # absorb near-duplicate points (rounding noise); genuinely decreasing
    # values survive and are rejected by validation
    out_b, out_v = [breaks[0]], [vals[0]]
    for b, v in zip(breaks[1:], vals[1:]):
        if abs(b - out_b[-1]) < SEGMENT_EPS or abs(v - out_v[-1]) < SEGMENT_EPS:
            continue
        out_b.append(b)
        out_v.append(v)
    # wrap side: the last breakpoint must stay clear of b0 + 1
    while len(out_b) > 1 and (
        abs(out_b[0] + 1 - out_b[-1]) < SEGMENT_EPS or abs(out_v[0] + 1 - out_v[-1]) < SEGMENT_EPS
    ):
        out_b.pop()
        out_v.pop()
    return tuple(out_b), tuple(out_v)


def _check_breaks(in_range: bool, increasing: bool) -> None:
    """Refuse breakpoints outside [0, 1), then breakpoints that do not increase."""
    if not in_range:
        raise ValueError("breakpoints must lie in [0, 1)")
    if not increasing:
        raise ValueError("breakpoints must be strictly increasing")


def _check_rises(rises) -> None:
    """Refuse a lift unless ``rises``, one truth value per segment (the last
    wraps), are all true, naming an interior segment before the wrap."""
    *interior, wrap = rises
    if not all(interior):
        raise ValueError("lift values must be strictly increasing")
    if not wrap:
        raise ValueError("wrap segment must have positive slope")


def _kept(breaks, vals, keep):
    """The points at the indices ``keep``; if there are none, the map is a
    rotation and its last point is kept."""
    keep = keep or [len(breaks) - 1]
    return tuple(breaks[i] for i in keep), tuple(vals[i] for i in keep)


def _merge_collinear(breaks, vals, slopes):
    """Float mode: keep the points whose incoming and outgoing ``slopes``
    differ by more than ``SLOPE_EPS``.  Merging two collinear segments keeps
    their common slope, so no other point's slopes change and one pass over
    the slopes suffices."""
    return _kept(breaks, vals, [i for i, s in enumerate(slopes)
                                if abs(slopes[i - 1] - s) > SLOPE_EPS * max(1.0, abs(slopes[i - 1]))])


def _exact_corners(breaks, vals):
    """``make``'s checks and collinear merge on exact coordinates, each read as
    an integer pair (numerator, denominator > 0) and compared by
    cross-multiplying: no Fraction is divided or built.  Segment i runs from
    point i to point i + 1, the last one to point 0 moved up a period; as
    breakpoints increase, a segment's slope is positive when its rise is."""
    xs = [(b.numerator, b.denominator) for b in breaks]
    ys = [(v.numerator, v.denominator) for v in vals]
    in_range = all(0 <= n < d for n, d in xs)
    (n, d), (m, e) = xs[0], ys[0]
    xs.append((n + d, d))
    ys.append((m + e, e))
    runs = [(n2 * d1 - n1 * d2, d1 * d2) for (n1, d1), (n2, d2) in zip(xs, xs[1:])]
    _check_breaks(in_range, all(n > 0 for n, _ in runs[:-1]))
    rises = [(n2 * d1 - n1 * d2, d1 * d2) for (n1, d1), (n2, d2) in zip(ys, ys[1:])]
    _check_rises(n > 0 for n, _ in rises)
    # slope i = (rise numerator * run denominator) / (rise denominator * run numerator)
    slopes = [(p * s, q * r) for (p, q), (r, s) in zip(rises, runs)]
    return _kept(breaks, vals, [i for i, (p, q) in enumerate(slopes)
                                if p * slopes[i - 1][1] != slopes[i - 1][0] * q])


def rotation_numerators(maps):
    """``(den, numerators)`` when every map is an exact rotation, None otherwise:
    map m is the rotation by ``numerators[id(m)] / den``, where ``den`` is the
    lcm of the angles' denominators.  Tables share their map objects, so each
    object is read once; its key names it while the caller holds it."""
    angles = {}
    for i, m in {id(m): m for m in maps}.items():
        a = m.vals[0]
        if len(m.breaks) != 1 or type(a) is not Fraction:
            return None
        angles[i] = a
    den = math.lcm(*{a.denominator for a in angles.values()})
    return den, {i: a.numerator * (den // a.denominator) for i, a in angles.items()}


def rotation_arc(d: int, den: int) -> float:
    """float(uniform_distance) of the rotations by a / den and b / den, for
    d = a - b: min(d mod den, den - d mod den) / den.  Python's int true
    division and float() of a Fraction are both correctly rounded, so the two
    agree exactly, past 2**53 too and whether or not d / den is reduced."""
    d %= den
    return min(d, den - d) / den


def _angle_terms(a: Fraction, b: Fraction, sign: int) -> tuple[int, int]:
    """Numerator and denominator, not reduced, of (a + sign*b) mod 1, in integers."""
    da, db = a.denominator, b.denominator
    if da == db:
        return (a.numerator + sign * b.numerator) % da, da
    den = da * db
    return (a.numerator * db + sign * b.numerator * da) % den, den


# The exact sweeps below keep every coordinate as an integer pair (numerator,
# denominator > 0), not reduced, compare pairs by cross-multiplying and build
# a Fraction only for an output coordinate.


def _lift_pairs(f: PLMap, s=0, k=0):
    """Integer-pair abscissae and ordinates of f's lift vertices at indices
    s-1 .. s+m, where index i is breakpoint i mod m moved up by k + i // m
    periods: one period from breakpoint s, with its neighbour on either side."""
    b, v = f.breaks, f.vals
    m = len(b)
    xs, ys = [], []
    for i in range(s - 1, s + m + 1):
        x, y, n = b[i % m], v[i % m], k + i // m
        xd, yd = x.denominator, y.denominator
        xs.append((x.numerator + n * xd, xd))
        ys.append((y.numerator + n * yd, yd))
    return xs, ys


def _at(x1, y1, x2, y2, t):
    """Value at t of the segment from (x1, y1) to (x2, y2), all integer pairs."""
    (x1n, x1d), (y1n, y1d), (x2n, x2d), (y2n, y2d), (tn, td) = x1, y1, x2, y2, t
    den = td * y2d * (x2n * x1d - x1n * x2d)
    return y1n * den + (tn * x1d - x1n * td) * (y2n * y1d - y1n * y2d) * x2d, y1d * den


def _compose_sweep(outer: PLMap, inner: PLMap) -> PLMap:
    """Exact outer after inner in one pass over inner's lift values
    v_0 < ... < v_{m-1} over [b_0, b_0 + 1) and outer's breakpoints lifted into
    [v_0, v_0 + 1): a breakpoint b_i of inner takes outer's value at v_i, and an
    outer breakpoint c strictly between v_i and v_{i+1} cuts at its preimage
    under that segment of inner, with outer's own value at c."""
    xs, ys = _lift_pairs(inner)  # inner's b_i is at position i + 1
    vn, vd = ys[1]
    k = vn // vd
    r = vn - k * vd  # v_0 = k + r / vd
    c, p = outer.breaks, len(outer.breaks)
    s = 0
    while s < p and c[s].numerator * vd < r * c[s].denominator:
        s += 1
    cx, cy = _lift_pairs(outer, s, k)  # outer's breakpoints in [v_0, v_0 + 1) at 1 .. p
    head_b, head_v, tail_b, tail_v = [], [], [], []
    j = 1
    for i in range(1, len(xs) - 1):
        v, v_next = ys[i], ys[i + 1]
        en, ed = cx[j]
        if en * v[1] == v[0] * ed:  # outer breaks at v_i: one cut, outer's value
            head_v.append(Fraction(*cy[j]))
            j += 1
        else:
            head_v.append(Fraction(*_at(cx[j - 1], cy[j - 1], cx[j], cy[j], v)))
        head_b.append(inner.breaks[i - 1])
        while cx[j][0] * v_next[1] < v_next[0] * cx[j][1]:
            xn, xd = _at(v, xs[i], v_next, xs[i + 1], cx[j])
            yn, yd = cy[j]
            if xn < xd:
                head_b.append(Fraction(xn, xd))
                head_v.append(Fraction(yn, yd))
            else:  # x >= 1: the cut moves down one period, and its value with it
                tail_b.append(Fraction(xn - xd, xd))
                tail_v.append(Fraction(yn - yd, yd))
            j += 1
    return PLMap.make(tail_b + head_b, tail_v + head_v)


def compose(outer: PLMap, inner: PLMap) -> PLMap:
    """outer after inner, exact: breakpoints are inner's plus inner-preimages of outer's."""
    if outer.is_rotation and inner.is_rotation:
        a, b = outer.vals[0], inner.vals[0]
        if type(a) is type(b) is Fraction:
            return PLMap((_ZERO,), (Fraction(*_angle_terms(a, b, 1)),))
        return PLMap.rotation(a + b)
    if outer.is_exact and inner.is_exact:
        return _compose_sweep(outer, inner)
    # float or mixed operands: evaluating at the cuts keeps float rounding as it was
    cuts = set(inner.breaks)
    inv = invert(inner)
    for c in outer.breaks:
        u = inv(c)
        cuts.add(u - math.floor(u))
    breaks = sorted(cuts)
    vals = [outer(inner(x)) for x in breaks]
    return PLMap.make(breaks, vals)


def invert(f: PLMap) -> PLMap:
    """Exact inverse homeomorphism; slopes are reciprocals on image segments."""
    if f.is_rotation:
        a = f.vals[0]
        if type(a) is Fraction:
            return PLMap((_ZERO,), (Fraction(*_angle_terms(_ZERO, a, -1)),))
        return PLMap.rotation(-a)
    pairs = []
    for x, v in zip(f.breaks, f.vals):
        k = math.floor(v)
        pairs.append((v - k, x - k))
    pairs.sort()
    return PLMap.make([p[0] for p in pairs], [p[1] for p in pairs])


def _crosses_half(d1, d2) -> bool:
    """Whether a half-integer lies between the integer pairs d1 and d2, ends included."""
    (an, ad), (bn, bd) = d1, d2
    if an * bd > bn * ad:
        (an, ad), (bn, bd) = d2, d1
    # the least half-integer at or above the lower end is at or below the upper
    return -((ad - 2 * an) // (2 * ad)) <= (2 * bn - bd) // (2 * bd)


def uniform_distance(f: PLMap, g: PLMap):
    """sup over the circle of the arc distance between f(p) and g(p); exact."""
    if f.is_rotation and g.is_rotation:
        a, b = f.vals[0], g.vals[0]
        if type(a) is type(b) is Fraction:
            num, den = _angle_terms(a, b, -1)
            return Fraction(min(num, den - num), den)
        return circle_norm(a - b)
    if not (f.is_exact and g.is_exact):
        # float or mixed operands: evaluating at the points keeps float rounding as it was
        pts = sorted(set(f.breaks) | set(g.breaks))
        diffs = [f(p) - g(p) for p in pts]
        ring = diffs + [diffs[0]]  # difference of lifts is 1-periodic
        for d1, d2 in zip(ring, ring[1:]):
            if _contains_half_integer(d1, d2):
                return 0.5
        return max(circle_norm(d) for d in diffs)
    # one pass over the merged breakpoints, with one pointer into each map
    fx, fy = _lift_pairs(f)
    gx, gy = _lift_pairs(g)
    m, n = len(f.breaks), len(g.breaks)
    diffs = []
    i = j = 1
    while i <= m or j <= n:
        t, u = fx[i], gx[j]
        c = t[0] * u[1] - u[0] * t[1]
        if c < 0:
            a, b = fy[i], _at(gx[j - 1], gy[j - 1], u, gy[j], t)
            i += 1
        elif c > 0:
            a, b = _at(fx[i - 1], fy[i - 1], t, fy[i], u), gy[j]
            j += 1
        else:
            a, b = fy[i], gy[j]
            i += 1
            j += 1
        diffs.append((a[0] * b[1] - b[0] * a[1], a[1] * b[1]))
    best_n, best_d = 0, 1
    for d1, d2 in zip(diffs, diffs[1:] + diffs[:1]):  # difference of lifts is 1-periodic
        if _crosses_half(d1, d2):
            return Fraction(1, 2)
        dn, dd = d1
        r = dn % dd
        r = min(r, dd - r)
        if r * best_d > best_n * dd:
            best_n, best_d = r, dd
    return Fraction(best_n, best_d)


def lipschitz_seminorm_diff(f: PLMap, g: PLMap):
    """Lipschitz seminorm of the lift difference: max slope gap on the merged partition."""
    fb, gb = f.breaks, g.breaks
    fs, gs = f.slopes, g.slopes
    m, n = len(fb), len(gb)
    best = 0
    i = j = 0  # breakpoints read so far; each map is on its segment i - 1, j - 1
    while i < m or j < n:  # one cell starts at each merged breakpoint
        if j == n or (i < m and fb[i] <= gb[j]):
            if j < n and fb[i] == gb[j]:
                j += 1
            i += 1
        else:
            j += 1
        best = max(best, abs(fs[i - 1] - gs[j - 1]))
    return best


def lipschitz_metric(f: PLMap, g: PLMap):
    """Uniform distance plus Lipschitz seminorm of the difference."""
    return uniform_distance(f, g) + lipschitz_seminorm_diff(f, g)


@dataclass(frozen=True)
class MetricReport:
    d_inf: float
    lip_seminorm_diff: float
    d_1: float
    d_max: float


def metric_report(f: PLMap, g: PLMap) -> MetricReport:
    d_inf = uniform_distance(f, g)
    lip = lipschitz_seminorm_diff(f, g)
    d1_inv = lipschitz_metric(invert(f), invert(g))
    return MetricReport(d_inf, lip, d_inf + lip, max(d_inf + lip, d1_inv))


def holder_constant(f: PLMap, beta, tol: float = 1e-6):
    """Certified upper bound for sup d(f(p), f(q)) / d(p, q)**beta.

    For beta = 1 this is the exact maximal slope.  For beta < 1 a branch and
    bound over chord space returns a value that is >= the true supremum and
    <= the supremum + tol.
    """
    if not 0 < beta <= 1:
        raise InvalidExponent(f"beta must be in (0, 1], got {beta}")
    if beta == 1:
        return f.max_slope
    beta = float(beta)
    slopes = f.slopes
    lmax, lmin = float(max(slopes)), float(min(slopes))
    fl = PLMap.make([float(b) for b in f.breaks], [float(v) for v in f.vals])

    def num(p, t):
        d = (fl(p + t) - fl(p)) % 1
        return min(d, 1 - d)

    # candidate chords anchored at breakpoints give the initial lower bound
    lower = 0.0
    cands = list(fl.breaks) + [b + 0.5 for b in fl.breaks]
    for p in cands:
        for q in cands:
            t = (q - p) % 1
            if 0 < t <= 0.5:
                lower = max(lower, num(p, t) / t**beta)
    t_floor = min(0.5, (max(lower, 1e-12) / lmax) ** (1 / (1 - beta)))
    cells = [(0.0, 1.0, t_floor, 0.5)]
    processed = 0
    while cells:
        processed += 1
        if processed > HOLDER_CELL_CAP:
            raise ResourceLimit(f"holder_constant refinement exceeded cell cap {HOLDER_CELL_CAP}")
        p1, p2, t1, t2 = cells.pop()
        delta_ub = (fl(p1 + t2) - fl(p1)) + (lmax - lmin) * (p2 - p1)
        ub = min(0.5, delta_ub) / t1**beta
        if ub <= lower + tol:
            continue
        pm, tm = 0.5 * (p1 + p2), 0.5 * (t1 + t2)
        for p, t in ((p1, t1), (p1, tm), (pm, t1), (pm, tm), (p2, t2), (pm, t2), (p1, t2), (p2, t1)):
            if 0 < t <= 0.5:
                lower = max(lower, num(p, t) / t**beta)
        if p2 - p1 >= t2 - t1:
            cells.append((p1, pm, t1, t2))
            cells.append((pm, p2, t1, t2))
        else:
            cells.append((p1, p2, t1, tm))
            cells.append((p1, p2, tm, t2))
    return lower + tol


def fb_family(b) -> PLMap:
    """Three-slope homeomorphism family indexed by b in (0, 1/2).

    Slopes 3/2 on (0, b), 1/2 on (b, 1/2) and (3-4b)/2 on (1/2, 1); fixes 0.
    Any two distinct members differ by Lipschitz seminorm 1, which makes the
    family a standing witness that the Lipschitz metric is non-separable.
    """
    b = Fraction(b) if not isinstance(b, float) else b
    if not 0 < b < Fraction(1, 2):
        raise ValueError("b must lie in (0, 1/2)")
    half = Fraction(1, 2)  # make turns every coordinate to float if b is one
    return PLMap.make((0, b, half), (0, 3 * half * b, half * half + b))
