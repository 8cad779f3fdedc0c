"""Deterministic fixture builders shared by tests, experiments and the CLI.

Everything is seeded; rational fixtures use small denominators so that exact
pipelines (rotation families, the three-slope family) stay fast.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

import numpy as np

from .circlemaps import PLMap, compose, invert, rotation_numerators
from .cocycles import CocycleSpec, table_words
from .errors import ParamError
from .rigidity import MeasurableConjugacy, WindowRule
from .symbolic import SFTSpace, SymbolicPoint


def random_fraction(rng, denom: int = 64) -> Fraction:
    return Fraction(int(rng.integers(0, denom)), denom)


def random_plmap(rng, n_breaks: int = 4, exact: bool = True) -> PLMap:
    """Random PL circle homeomorphism with ``n_breaks`` breakpoints at multiples of 1/64."""
    if n_breaks < 1:
        raise ValueError("need at least one breakpoint")
    idx = sorted(rng.choice(64, size=n_breaks, replace=False))
    if exact:
        breaks = [Fraction(int(i), 64) for i in idx]
        weights = [int(rng.integers(1, 16)) for _ in range(n_breaks)]
        total = sum(weights)
        v0 = random_fraction(rng)
        vals = [v0]
        for w in weights[:-1]:
            vals.append(vals[-1] + Fraction(w, total))
    else:
        breaks = [i / 64 for i in idx]
        weights = rng.integers(1, 16, size=n_breaks).astype(float)
        weights /= weights.sum()
        v0 = float(rng.integers(0, 64)) / 64
        vals = [v0]
        for w in weights[:-1]:
            vals.append(vals[-1] + w)
    return PLMap.make(breaks, vals)


def near_identity_plmap(rng, dev: float = 0.3, denom: int = 64) -> PLMap:
    """Random homeomorphism with four breakpoints and every slope inside [1-dev, 1+dev]."""
    idx = sorted(rng.choice(denom, size=4, replace=False))
    breaks = [Fraction(int(i), denom) for i in idx]
    gaps = [b2 - b1 for b1, b2 in zip(breaks, breaks[1:])] + [breaks[0] + 1 - breaks[-1]]
    dev_frac = Fraction(int(dev * 4096), 4096)  # round down: keeps the slope band
    amp = min(gaps) * dev_frac / 2
    offsets = [amp * Fraction(int(rng.integers(-denom, denom + 1)), denom) for _ in idx]
    return PLMap.make(breaks, [b + e for b, e in zip(breaks, offsets)])


def rotation_cocycle(space: SFTSpace, window: int, seed: int, denom: int = 360) -> CocycleSpec:
    """Rotation-valued generator table with exact rational angles."""
    rng = np.random.default_rng(seed)
    table = {
        w: PLMap.rotation(random_fraction(rng, denom))
        for w in table_words(space, window, "rotation_cocycle")
    }
    return CocycleSpec(space, window, table)


def pl_dominated_cocycle(space: SFTSpace, window: int, theta: float, seed: int) -> CocycleSpec:
    """PL generator table with all slopes strictly inside the domination band
    (rho**-(alpha-theta), rho**(alpha-theta)) for alpha = 1."""
    band = float(space.rho) ** (1.0 - theta)
    if band <= 1:
        raise ParamError("theta must be < alpha for a non-empty band")
    dev = 0.98 * (1.0 - 1.0 / band)
    rng = np.random.default_rng(seed)
    table = {
        w: near_identity_plmap(rng, dev)
        for w in table_words(space, window, "pl_dominated_cocycle")
    }
    return CocycleSpec(space, window, table)


def expanding_cocycle(space: SFTSpace, slope: float = 4.0) -> CocycleSpec:
    """Window-0 cocycle violating domination: one slope equals ``slope``.

    Generators differ across symbols by a rotation so that fibre differences
    along an orbit get amplified rather than cancelling.
    """
    run = 0.8 / (slope - 0.25)
    m = PLMap.make((0.0, run), (0.0, slope * run))
    table = {
        w: m if w[0] % 2 == 0 else compose(m, PLMap.rotation(0.3))
        for w in table_words(space, 0, "expanding_cocycle")
    }
    return CocycleSpec(space, 0, table)


def telescoping_cocycle(space: SFTSpace) -> CocycleSpec:
    """Window-0 pair m, m^-1: products along alternating orbits telescope."""
    m = PLMap.make((Fraction(0), Fraction(2, 5)), (Fraction(0), Fraction(3, 5)))
    table = {}
    for w in table_words(space, 0, "telescoping_cocycle"):
        table[w] = m if w[0] % 2 == 0 else invert(m)
    return CocycleSpec(space, 0, table)


def decaying_rotation_rule(
    space: SFTSpace, window: int, amp: Fraction = Fraction(1, 20)
) -> WindowRule:
    """Window rule of rotations whose coordinate weights decay like rho**-|m|."""
    rho = space.rho
    if not isinstance(rho, int):
        raise ParamError("decaying amplitudes need an integer rho")
    # integer weights amp * rho**-|m| over the common denominator amp.den * rho**window
    weights = [amp.numerator * rho ** (window - abs(m)) for m in range(-window, window + 1)]
    words = table_words(space, window, "decaying_rotation_rule")
    return WindowRule(window, _rotation_table(
        words, [sum(map(mul, weights, w)) for w in words], amp.denominator * rho**window
    ))


def _rotation_table(words, nums, den: int) -> dict:
    """{word: rotation by num / den} over paired ``words`` and ``nums``, with
    one map per distinct angle."""
    nums = [num % den for num in nums]
    rotations = {num: PLMap.rotation(Fraction(num, den)) for num in set(nums)}
    return dict(zip(words, map(rotations.__getitem__, nums)))


def conjugated_pair(F: CocycleSpec, psi: WindowRule) -> CocycleSpec:
    """The cocycle G_x = psi(sigma x)^-1 f_x psi(x), tabulated exactly.

    When every entry of F and psi is an exact rotation, G_x is the rotation by
    -psi(sigma x) + f_x + psi(x), summed on integer numerators over one common
    denominator, with one map per distinct angle.  Other tables are composed.
    """
    space = F.space
    wf, wp = F.window, psi.window
    wg = max(wf, wp + 1)
    words = table_words(space, wg, "conjugated_pair")
    found = rotation_numerators([*F.table.values(), *psi.table.values()])
    if found is not None:
        den, by_id = found
        fn, pn = ({w: by_id[id(m)] for w, m in t.items()} for t in (F.table, psi.table))
        # f_x reads v[fa:fb] of a G word v, psi(x) reads v[pa:pb], psi(sigma x) one further
        (fa, fb), (pa, pb) = (wg - wf, wg + wf + 1), (wg - wp, wg + wp + 1)
        nums = [fn[v[fa:fb]] + pn[v[pa:pb]] - pn[v[pa + 1 : pb + 1]] for v in words]
        return CocycleSpec(space, wg, _rotation_table(words, nums, den))
    inverses = {w: invert(m) for w, m in psi.table.items()}
    inner = {}  # f psi(x) per distinct (f-word, psi-word) pair
    table = {}
    for v in words:
        key = (v[wg - wf : wg + wf + 1], v[wg - wp : wg + wp + 1])
        if key not in inner:
            inner[key] = compose(F.table[key[0]], psi.table[key[1]])
        table[v] = compose(inverses[v[wg + 1 - wp : wg + 2 + wp]], inner[key])
    return CocycleSpec(space, wg, table)


def rotation_conjugacy_rule(psi: WindowRule, x0: SymbolicPoint) -> WindowRule:
    """Ground-truth conjugacy phi_y = psi_{x0}^-1 psi_y as a window rule,
    composed once per distinct map of psi."""
    base = invert(psi.phi_at(x0))
    distinct = {id(m): m for m in psi.table.values()}  # tables share their maps
    composed = {i: compose(base, m) for i, m in distinct.items()}
    return WindowRule(psi.window, {w: composed[id(m)] for w, m in psi.table.items()})


def corrupted_conjugacy(rule: WindowRule, points, seed: int) -> MeasurableConjugacy:
    """Override the rule at finitely many points by rotations by angles in [1/8, 1/4)."""
    rng = np.random.default_rng(seed)
    corruption = {}
    for pt in points:
        offset = Fraction(1, 8) + random_fraction(rng, 64) / 8
        corruption[pt] = compose(PLMap.rotation(offset), rule.phi_at(pt))
    return MeasurableConjugacy(rule, corruption)


def staircase_space(levels: int) -> SFTSpace:
    """Terminal symbol 0 plus two parallel ladders a_0..a_L and b_0..b_L."""
    k = 2 * (levels + 1) + 1
    P = [[0] * k for _ in range(k)]
    a = lambda j: 1 + j
    b = lambda j: 1 + (levels + 1) + j
    P[0][0] = 1
    P[0][a(0)] = 1
    P[0][b(0)] = 1
    for j in range(levels):
        P[a(j)][a(j + 1)] = 1
        P[b(j)][b(j + 1)] = 1
    P[a(levels)][0] = 1
    P[b(levels)][0] = 1
    return SFTSpace(k, tuple(map(tuple, P)))


def staircase_cocycle(levels: int, theta: float = 0.4, amp: float = 0.1):
    """Window-1 su-dominated PL cocycle saturating the theta decay rate.

    The two ladders carry rotations whose angle gap at level j is
    amp * rho**(-theta j); the terminal symbol carries a PL map whose inverse
    slope meets rho**(alpha - theta) exactly.  Returns (cocycle, x, y) where
    x, y are the two ladder points: a stable pair whose holonomy increments
    decay at exactly the domination rate.
    """
    space = staircase_space(levels)
    rho = float(space.rho)
    lo = rho ** (-(1.0 - theta))
    p = 0.6
    anchor = PLMap.make((0.0, p), (0.0, lo * p))
    base_angle = 0.15
    table = {}
    for w in table_words(space, 1, "staircase_cocycle"):
        c = w[1]
        if c == 0:
            table[w] = anchor
        else:
            j = (c - 1) % (levels + 1)
            track_a = c <= levels + 1
            angle = base_angle + (amp * rho ** (-theta * j) if track_a else 0.0)
            table[w] = PLMap.rotation(angle)
    # x climbs ladder a, y ladder b, both between 0 tails
    x, y = (SymbolicPoint.make(space, b"\0", bytes(range(a, a + levels + 1)), b"\0")
            for a in (1, levels + 2))
    return CocycleSpec(space, 1, table), x, y


def perturb_one_entry(c: CocycleSpec, angle=Fraction(1, 100)) -> CocycleSpec:
    """Copy of the cocycle with the first table word composed with a rotation."""
    word = sorted(c.table)[0]
    table = dict(c.table)
    table[word] = compose(PLMap.rotation(angle), table[word])
    return CocycleSpec(c.space, c.window, table, c.alpha)
