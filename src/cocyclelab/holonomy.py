"""Stable and unstable holonomies of dominated cocycles.

For locally constant generators the limit (f^n_y)^-1 f^n_x over a stable pair
stabilises exactly once the generator windows have merged, so holonomies are
computed exactly rather than truncated; the geometric tail from the domination
margin is reported as diagnostics.  Convergence tables expose the per-step
increments together with a certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import cocycles
from .circlemaps import PLMap, compose, invert, rotation_arc, uniform_distance
from .cocycles import CocycleSpec, power_domination, quotient_numerators, quotients
from .errors import NoConvergence, NotDominated
from .symbolic import (
    SymbolicPoint,
    distance,
    stable_agreement_onset,
    unstable_agreement_onset,
)

HOLONOMY_ITER_CAP = 4096  # largest stabilisation index a holonomy may need
_ZERO = Fraction(0)


def gamma_budget(theta: float, alpha: float) -> float:
    """Default exponent budget for holonomy regularity, in (0, alpha)."""
    return alpha * theta / (theta + 1.0)


@dataclass(frozen=True)
class HolonomyResult:
    map: PLMap
    n_used: int
    cauchy_tail: float
    gamma_bound: float
    pair: tuple = field(repr=False, compare=False)  # (x, y, alpha)

    # diagnostics, computed when first read; the tail above is the certificate
    @cached_property
    def identity_distance(self) -> float:
        return float(uniform_distance(self.map, PLMap.identity()))

    @cached_property
    def distance_alpha_ratio(self) -> float | None:
        x, y, alpha = self.pair
        d_xy = float(distance(x, y))
        return self.identity_distance / d_xy**alpha if d_xy > 0 else None


def _margin(c: CocycleSpec, side: str, n0: int) -> float:
    """Time-n0 domination margin of ``c`` on ``side``; refuses one that is not positive."""
    dom = power_domination(c, n0)
    theta = dom.theta_s if side == "s" else dom.theta_u
    if theta <= 0:
        raise NotDominated(f"theta_{side} = {theta:.4f} <= 0")
    return theta


def _onset(x: SymbolicPoint, y: SymbolicPoint, side: str) -> int:
    return stable_agreement_onset(x, y) if side == "s" else unstable_agreement_onset(x, y)


def _limit(pair, side: str, start, n0: int, tol: float, what, memo: dict, key):
    """The quotient of ``pair`` = (A, y, B, x) at the stabilisation index, with
    the index and the tail.

    The index n_used is the first multiple of n0 at or past ``start()``, the
    onset plus the window (n = -n_used on the unstable side); the tail is the
    distance to the quotient at n_used + n0.  Both quotients come from one
    call.  When ``quotient_numerators`` answers with q and q' over ``den``,
    the tail is ``rotation_arc(q - q', den)`` and only the quotient at n_used
    is made a map.  Any other pair takes ``quotients`` and
    ``uniform_distance``.  A result held in ``memo`` under
    ``key`` is read instead of recomputed, and a fresh one is held there; the
    memo is emptied when it holds ``ORBIT_MEMO_CAP`` results.  Held or fresh,
    ``what()`` names the limit in the ``NoConvergence`` raised when n_used
    exceeds ``HOLONOMY_ITER_CAP`` or the tail exceeds ``tol``.
    """
    held = memo.get(key)
    n_used = held[1] if held else max(0, math.ceil(start() / n0)) * n0
    if n_used > HOLONOMY_ITER_CAP:
        raise NoConvergence(
            f"{what()}: stabilisation index {n_used} exceeds cap {HOLONOMY_ITER_CAP}"
        )
    if held is None:
        sign = 1 if side == "s" else -1
        ns = (sign * n_used, sign * (n_used + n0))
        sums = quotient_numerators(*pair, ns)
        if sums is None:
            h, h_next = quotients(*pair, ns)
            held = h, n_used, float(uniform_distance(h, h_next))
        else:
            den, (q, q_next) = sums
            held = PLMap((_ZERO,), (Fraction(q, den),)), n_used, rotation_arc(q - q_next, den)
        if len(memo) >= cocycles.ORBIT_MEMO_CAP:
            memo.clear()
        memo[key] = held
    _check_tail(held[2], tol, what)
    return held


def _check_tail(tail: float, tol: float, what) -> None:
    if tail > tol:
        raise NoConvergence(f"{what()}: residual tail {tail:.3e} exceeds tol {tol:.3e}")


def _holonomy(c: CocycleSpec, x, y, side: str, tol: float, n0: int):
    """The holonomy, held per cocycle under (side, n0, x, y) in ``c._cache``."""
    theta = _margin(c, side, n0)
    h, n_used, tail = _limit(
        (c, y, c, x), side, lambda: _onset(x, y, side) + c.window, n0,
        tol, lambda: f"{side}-holonomy of ({x!r}, {y!r})",
        c._cache.setdefault("holonomy", {}), (side, n0, x, y),
    )
    alpha = float(c.alpha)
    return HolonomyResult(h, n_used, tail, gamma_budget(theta, alpha), (x, y, alpha))


def stable_holonomy(
    c: CocycleSpec, x: SymbolicPoint, y: SymbolicPoint, tol: float = 1e-8, n0: int = 1
) -> HolonomyResult:
    """Holonomy between the fibres over x and y in W^s(x).

    The limit stabilises once the generator windows along the forward orbits
    merge, so the truncation budget ``tol`` is met with the measured residual
    tail (zero in rational mode, rounding-level in float mode).
    """
    return _holonomy(c, x, y, "s", tol, n0)


def unstable_holonomy(
    c: CocycleSpec, x: SymbolicPoint, y: SymbolicPoint, tol: float = 1e-8, n0: int = 1
) -> HolonomyResult:
    """Holonomy between the fibres over x and y in W^u(x)."""
    return _holonomy(c, x, y, "u", tol, n0)


def transport(
    F: CocycleSpec, G: CocycleSpec, x: SymbolicPoint, y: SymbolicPoint, side: str,
    value: PLMap | None = None, tol: float = 1e-8, n0: int = 1,
) -> PLMap:
    """Carry a conjugacy value from the fibre over x to the fibre over y.

    Returns h^F_{xy} value (h^G_{xy})^-1 along a stable (``side`` "s") or
    unstable ("u") pair; ``value=None`` stands for the identity and adds no
    composition.  The holonomies are looked up by name at call time, so a
    wrapper installed over ``stable_holonomy`` or ``unstable_holonomy`` sees
    every transport.
    """
    hol = stable_holonomy if side == "s" else unstable_holonomy
    hf = hol(F, x, y, tol, n0).map
    if value is not None:
        hf = compose(hf, value)
    return compose(hf, invert(hol(G, x, y, tol, n0).map))


def conjugacy_quotient(
    F: CocycleSpec, G: CocycleSpec, x: SymbolicPoint, ys, side: str,
    tol: float = 1e-8, n0: int = 1,
) -> list:
    """``[transport(F, G, x, y, side) for y in ys]``, each read as the one
    quotient (F^n_y)^-1 G^n_y.

    Valid when sigma^n0 fixes x and F^n0_x == G^n0_x.  Then F^n_x == G^n_x
    at every multiple n of n0, and that factor cancels from
    h^F_{xy} (h^G_{xy})^-1 = (F^n_y)^-1 F^n_x (G^n_x)^-1 G^n_y.  At the index
    of the wider window both holonomies have stabilised, so in exact mode the
    result is ``==`` to the transport.  The checks are the holonomies': each
    cocycle dominated on ``side``, each point's onset, the iteration cap and
    the tail, and a failure raises for the first point that fails.  When
    both tables are rotation-summable, the points up to the first past the
    cap are read in one ``quotient_numerators`` call over the set; otherwise
    each point takes ``_limit``.
    """
    _margin(F, side, n0)
    w = max(F.window, G.window)
    starts = [_onset(x, y, side) + w for y in ys]
    _margin(G, side, n0)

    def what(i):
        return lambda: f"{side}-conjugacy quotient of ({x!r}, {ys[i]!r})"

    def limit(i):  # phi_at holds the values, so _limit's memo is a throwaway
        return _limit((F, ys[i], G, ys[i]), side, lambda: starts[i], n0, tol, what(i), {}, None)[0]

    n_used = [max(0, math.ceil(start / n0)) * n0 for start in starts]
    ok = next((i for i, n in enumerate(n_used) if n > HOLONOMY_ITER_CAP), len(ys))
    sign = 1 if side == "s" else -1
    pts = ys[:ok]
    sums = quotient_numerators(F, pts, G, pts, [(sign * n, sign * (n + n0)) for n in n_used[:ok]])
    if sums is None:
        return [limit(i) for i in range(len(ys))]
    den, rows = sums
    out = []
    for i, (q, q_next) in enumerate(rows):
        _check_tail(rotation_arc(q - q_next, den), tol, what(i))
        out.append(PLMap((_ZERO,), (Fraction(q, den),)))
    if ok < len(ys):
        limit(ok)  # raises the cap's NoConvergence
    return out


@dataclass(frozen=True)
class AxiomReport:
    rows: tuple
    max_composition_residual: float
    max_equivariance_residual: float
    tol: float
    passed: bool


def verify_holonomy_axioms(
    c: CocycleSpec, triples, tol: float = 1e-6, side: str = "s"
) -> AxiomReport:
    """Composition and equivariance residuals over sampled fibre triples.

    Each triple must be pairwise on one stable (or unstable) set; the
    equivariance check conjugates by the generator.
    """
    hol = stable_holonomy if side == "s" else unstable_holonomy
    rows = []
    worst_c = worst_e = 0.0
    for x, y, z in triples:
        h_xy = hol(c, x, y).map
        h_yz = hol(c, y, z).map
        h_xz = hol(c, x, z).map
        rc = float(uniform_distance(compose(h_yz, h_xy), h_xz))
        h_shift = hol(c, x.shift(1), y.shift(1)).map
        fx, fy = c.generator(x), c.generator(y)
        re = float(uniform_distance(compose(fy, h_xy), compose(h_shift, fx)))
        rows.append((rc, re))
        worst_c = max(worst_c, rc)
        worst_e = max(worst_e, re)
    return AxiomReport(tuple(rows), worst_c, worst_e, tol, worst_c <= tol and worst_e <= tol)


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple  # (n, increment, certified bound)
    slope: float | None
    decaying: bool


def holonomy_convergence_table(
    c: CocycleSpec, x: SymbolicPoint, y: SymbolicPoint, n_max: int
) -> ConvergenceTable:
    """Increments d(h_n, h_{n+1}) of the stable limit with a certified bound.

    The bound multiplies the product of inverse generator slopes along the
    y-orbit by the uniform gap between the inverse generators at step n.
    """
    stable_agreement_onset(x, y)
    h_prev = PLMap.identity()
    prod_linv = 1.0
    rows = []
    for n, h in enumerate(quotients(c, y, c, x, range(1, n_max + 2))):
        gx, gy = c.generator(x.shift(n)), c.generator(y.shift(n))
        bound = prod_linv * float(uniform_distance(invert(gy), invert(gx)))
        inc = float(uniform_distance(h, h_prev))
        rows.append((n, inc, bound))
        h_prev = h
        prod_linv *= 1.0 / float(gy.min_slope)
    live = [(n, inc) for n, inc, _ in rows if inc > 0]
    slope = None
    if len(live) >= 2:
        ns = np.array([n for n, _ in live], dtype=float)
        logs = np.log(np.array([inc for _, inc in live]))
        slope = float(np.polyfit(ns, logs, 1)[0])
    # decay means the fitted rate is negative and the envelope actually drops;
    # saturation at the circle diameter must not count as decay
    decaying = not live or (
        slope is not None and slope < -1e-9 and live[-1][1] < live[0][1]
    )
    return ConvergenceTable(tuple(rows), slope, decaying)
