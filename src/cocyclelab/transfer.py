"""Construction and verification of the conjugacy between two cocycles with
coinciding periodic data.

The transfer map is built from holonomy quotients at the base periodic point,
sampled over the homoclinic class; the verifiers replay the identities the
construction is supposed to satisfy (forward/backward agreement, the
cohomological equation) and report residuals.  Transport consistency is
checked by ``rigidity.check_conj_hol_relation`` on ``MeasurableConjugacy(T)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .circlemaps import PLMap, compose, invert, rotation_numerators, uniform_distance
from .cocycles import CocycleSpec, dominated_pair, iterate, quotients
from .errors import (
    InadmissibleLoop,
    InsufficientScales,
    MissingSample,
    NotStablePair,
    NotUnstablePair,
    PeriodicDataMismatch,
)
from .holonomy import conjugacy_quotient, gamma_budget, transport
from .symbolic import (
    SymbolicPoint,
    agreement_exponents,
    closing_point_range,
    homoclinic_points,
    periodic_points,
    stable_agreement_onset,
    unstable_agreement_onset,
)

CHECK_PERIOD = 6  # periodic data are compared at every period up to this one
PHI_CACHE_CAP = 4096  # phi values cached per transfer map before the cache is emptied


@dataclass(frozen=True)
class ResidualReport:
    rows: tuple
    worst: float
    tol: float
    passed: bool
    diagnostics: tuple = ()
    skipped: int = 0  # shadow bridges with no admissible closing point

    @classmethod
    def of(cls, rows, tol: float, diagnostics=(), skipped: int = 0) -> ResidualReport:
        """Report over (key, residual) rows; the worst residual is 0.0 when there are none."""
        rows = tuple(rows)
        worst = max((r for _, r in rows), default=0.0)
        return cls(rows, worst, tol, worst <= tol, tuple(diagnostics), skipped)


def check_periodic_data(
    f: CocycleSpec, g: CocycleSpec, max_period: int, tol: float = 1e-9
) -> ResidualReport:
    """Compare n-step return compositions at every periodic point, n <= max_period.

    The rows are ((point, n), residual).
    """
    if f.space != g.space:
        raise ValueError("cocycles live over different spaces")
    rows = []
    for pt in periodic_points(f.space, max_period):
        for n in range(pt.period, max_period + 1, pt.period):
            rows.append(((pt, n), float(uniform_distance(iterate(f, pt, n), iterate(g, pt, n)))))
    return ResidualReport.of(rows, tol)


@dataclass(eq=False)
class TransferMap:
    """Conjugacy phi sampled on the homoclinic class of a periodic base point.

    ``phi_at`` resolves phi at any point forward- or backward-asymptotic to
    the base point: as one forward quotient when both tables are exact and
    the return maps at the base point are equal, else through the holonomy
    transport.  The stored ``samples`` are the enumerated class, and phi at
    the base point is the identity.  Values off the class are cached in
    ``_cache``, at most ``PHI_CACHE_CAP`` of them.  ``class_points`` is the
    class in ``sort_key`` order, as ``homoclinic_points`` returns it, and
    ``holder_estimate`` is the regression over it, computed when first read.
    ``periodic_data`` is the report with which ``build_transfer`` checked the
    pair, and ``cohomology`` the residual report over the class; its
    ``worst`` is the construction residual.
    """

    F: CocycleSpec
    G: CocycleSpec
    base_point: SymbolicPoint
    period: int
    samples: dict
    beta_budget: float
    tol: float
    class_points: tuple = ()
    periodic_data: ResidualReport | None = field(default=None, repr=False)
    cohomology: ResidualReport | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    # a property, not a field, so that printing a map does not run the regression
    @cached_property
    def holder_estimate(self) -> tuple | None:
        try:
            return estimate_holder(self)
        except InsufficientScales:
            return None

    @cached_property
    def _equal_returns(self) -> bool:
        """Whether phi is one forward quotient: exact tables, and equal
        return maps at a base point that sigma**period fixes."""
        x0, n0 = self.base_point, self.period
        return (
            x0.period is not None and n0 % x0.period == 0
            and all(m.is_exact for c in (self.F, self.G) for m in c.table.values())
            and iterate(self.F, x0, n0) == iterate(self.G, x0, n0)
        )

    def phi_at(self, y: SymbolicPoint) -> PLMap:
        if y in self.samples:
            return self.samples[y]
        if y in self._cache:
            return self._cache[y]
        carry = conjugacy_quotient if self._equal_returns else transport
        args = (self.F, self.G, self.base_point, y)
        try:
            phi = carry(*args, "s", tol=self.tol, n0=self.period)
        except NotStablePair:
            try:
                phi = carry(*args, "u", tol=self.tol, n0=self.period)
            except NotUnstablePair:
                raise MissingSample(
                    "point is not asymptotic to the base point in either direction"
                ) from None
        if len(self._cache) >= PHI_CACHE_CAP:
            self._cache.clear()
        self._cache[y] = phi
        return phi


def build_transfer(
    F: CocycleSpec,
    G: CocycleSpec,
    x0: SymbolicPoint,
    core_len: int,
    tol: float = 1e-8,
) -> TransferMap:
    """Construct phi on the homoclinic class of ``x0`` via stable holonomies.

    For base period n0 > 1 the construction runs through the time-n0 cocycles
    over sigma**n0 and samples the asymmetric splice class whose backward tail
    follows sigma**(n0-1) of the base orbit.
    """
    if F.space != G.space:
        raise ValueError("cocycles live over different spaces")
    n0 = x0.period
    if n0 is None:
        raise ValueError("base point must be periodic")
    dom_f, dom_g = dominated_pair(F, G, n0)
    pd = check_periodic_data(F, G, max(n0, CHECK_PERIOD), tol)
    if not pd.passed:
        raise PeriodicDataMismatch(f"worst periodic residual {pd.worst:.3e} > {tol}")
    pts = homoclinic_points(x0, core_len)
    alpha = float(F.alpha)
    beta = gamma_budget(dom_f.theta_s, alpha) * gamma_budget(dom_g.theta_s, float(G.alpha))
    T = TransferMap(F, G, x0, n0, {}, beta, tol, class_points=tuple(pts), periodic_data=pd)
    for y in pts:
        T.samples[y] = T.phi_at(y)
    T._cache.clear()  # each class value is held once, in samples
    T.samples[x0] = PLMap.identity()
    T.cohomology = verify_cohomology(T, pts)
    return T


def cohomology_residual(F: CocycleSpec, G: CocycleSpec, phi, y: SymbolicPoint) -> float:
    """Uniform distance between f_y and phi(sigma y) g_y phi(y)^-1, for a lookup ``phi``."""
    rhs = compose(compose(phi(y.shift(1)), G.generator(y)), invert(phi(y)))
    return float(uniform_distance(F.generator(y), rhs))


def verify_cohomology(T: TransferMap, points=None, tol: float = 1e-6) -> ResidualReport:
    """Residuals of f_y = phi(sigma y) g_y phi(y)^-1 over the sampled class."""
    pts = T.class_points if points is None else points
    return ResidualReport.of(((y, cohomology_residual(T.F, T.G, T.phi_at, y)) for y in pts), tol)


def verify_lemma1(T: TransferMap, points=None, tol: float = 1e-6) -> ResidualReport:
    """Forward- and backward-built transfer values must agree on the class.

    For base period 1 this compares the stable and unstable holonomy
    quotients.  For period n0 > 1 it compares the stabilised forward limit of
    (f^{k n0}_y)^-1 g^{k n0}_y with the backward limit at exponent -k n0 + 1,
    and additionally replays the orbit-closing comparison: the two limits are
    bridged through periodic points repeating a long central word of y, for
    which forward and backward return quotients agree identically.
    """
    pts = T.class_points if points is None else points
    x0, n0 = T.base_point, T.period
    F, G = T.F, T.G
    w = max(F.window, G.window)
    if n0 == 1:
        rows = [
            (y, float(uniform_distance(
                transport(F, G, x0, y, "s", tol=T.tol), transport(F, G, x0, y, "u", tol=T.tol)
            )))
            for y in pts
        ]
        return ResidualReport.of(rows, tol)
    rows = []
    left_ref = x0.shift(n0 - 1)
    diags = []
    skipped = 0
    for y in pts:
        ks = math.ceil((stable_agreement_onset(y, x0) + w) / n0) + 1
        ku = math.ceil((unstable_agreement_onset(y, left_ref) + w) / n0) + 1
        m = max(ks, ku) * n0
        r = float(uniform_distance(*quotients(F, y, G, y, (m, -m + 1))))
        rows.append((y, r))
        # bridge the two limits through orbit-closing points: their forward and
        # backward return quotients agree identically, and the forward quotient
        # approaches y's as the closing radius grows.
        for n in (1, 2, 3):
            lo, hi = -n * n0 + 1, n * n0
            try:
                z = closing_point_range(y, lo, hi)
            except InadmissibleLoop:
                skipped += 1
                continue
            zf, zb = quotients(F, z, G, z, (hi, lo))
            gap = float(uniform_distance(zf, zb))
            near = float(uniform_distance(zf, *quotients(F, y, G, y, (hi,))))
            rows.append((z, gap))
            diags.append((y, n, gap, near))
    return ResidualReport.of(rows, tol, diags, skipped)


def holder_regression(points, lookup, rho: float, min_samples: int = 30, *, _exponents=None):
    """Log-log regression of d(lookup(y), lookup(z)) against d(y, z).

    Returns (exponent, constant); exponent is inf when the map is constant
    across the samples (all numerators vanish).  Pairs with zero numerator are
    dropped from the fit.  The pairs run over i < j in row-major order, with
    their distance exponents read from ``agreement_exponents(points)``; a
    caller that already holds that array passes it as ``_exponents``.
    ``lookup`` is called once per point.  Each distance and its log are
    computed once per distinct ordered pair of values, or once per unordered
    pair when both values are exact, since the exact distance is symmetric.
    Between two exact rotations, with angles d_p / den and d_q / den over one
    common denominator, the distance is min(d, den - d) / den for
    d = (d_p - d_q) mod den, in Python ints: integer true division is
    correctly rounded, so it is float(uniform_distance) exactly.  Other pairs
    take ``uniform_distance``.
    """
    pts = list(points)
    if len(pts) < min_samples:
        raise InsufficientScales(f"need at least {min_samples} samples, got {len(pts)}")
    # number the distinct values; an exact map and its float copy compare and
    # hash equal but round differently in uniform_distance, so the mode is part
    # of the key
    ids, idx = {}, []
    for y in pts:
        m = lookup(y)
        idx.append(ids.setdefault((m, m.is_exact), len(ids)))
    vals = [m for m, _ in ids]
    idx = np.array(idx, dtype=np.intp)
    i, j = np.triu_indices(len(pts), 1)
    n = (agreement_exponents(pts) if _exponents is None else _exponents)[i, j]
    distinct = n >= 0
    n, a, b = n[distinct], idx[i[distinct]], idx[j[distinct]]
    exact = np.array([m.is_exact for m in vals], dtype=bool)
    swap = (a > b) & exact[a] & exact[b]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    need = np.zeros((len(vals), len(vals)), dtype=bool)
    need[a, b] = True
    rotations = (m for m in vals if m.is_rotation and type(m.vals[0]) is Fraction)
    den, num = rotation_numerators(rotations)
    log_r = np.full(need.shape, -math.inf)  # -inf marks a zero distance
    for p, q in zip(*(ix.tolist() for ix in np.nonzero(need))):
        f, g = id(vals[p]), id(vals[q])
        if f in num and g in num:
            d = (num[f] - num[g]) % den
            r = min(d, den - d) / den
        else:
            r = float(uniform_distance(vals[p], vals[q]))
        if r:
            log_r[p, q] = math.log(r)
    log_r = log_r[a, b]
    fit = log_r > -math.inf
    if n.size and not fit.any():
        return (math.inf, 0.0)
    n, log_r = n[fit], log_r[fit]
    scales = np.count_nonzero(np.bincount(n))
    if scales < 3:
        raise InsufficientScales(f"only {scales} distance scales present")
    slope, intercept = np.polyfit(-n * math.log(rho), log_r, 1)
    return (float(slope), float(math.exp(intercept)))


def estimate_holder(T: TransferMap, points=None):
    """Regularity regression of the transfer map over its sampled class."""
    pts = T.class_points if points is None else points
    return holder_regression(pts, T.phi_at, float(T.F.space.rho))
