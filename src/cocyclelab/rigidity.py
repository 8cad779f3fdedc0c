"""Measurable-conjugacy rigidity experiment.

A conjugacy given almost everywhere by a clean rule, corrupted on a finite
(hence null) set, is regularised back: values are transported from screened
anchor points along stable and unstable holonomy legs through local product
points.  The transported conjugacy ignores the corruption, satisfies the
cohomological equation, and its modulus of continuity is measured against the
holonomy exponent gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circlemaps import PLMap, uniform_distance
from .cocycles import CocycleSpec, check_bounded_distortion, dominated_pair
from .errors import DistortionUnbounded, InsufficientScales, MissingSample
from .holonomy import gamma_budget, transport
from .symbolic import (
    MarkovMeasure,
    SymbolicPoint,
    agreement_exponents,
    bracket,
    sample_measure,
)
from .transfer import cohomology_residuals, holder_regression

DISTORTION_HORIZON = 12  # steps over which G's distortion is screened


@dataclass(frozen=True)
class WindowRule:
    """Locally constant conjugacy rule: phi depends on a centred window."""

    window: int
    table: dict

    def phi_at(self, y: SymbolicPoint) -> PLMap:
        w = self.window
        return self.table[y.window(-w, w + 1)]


@dataclass(eq=False)
class MeasurableConjugacy:
    """A conjugacy rule together with a finite set of corrupted values.

    The corruption set is finite, hence null for every non-atomic Markov
    measure; ``phi_at`` returns the corrupted value where one is installed.
    The rule is any conjugacy with ``phi_at``: a WindowRule or a TransferMap.
    """

    rule: object
    corruption: dict = field(default_factory=dict)

    def phi_at(self, y: SymbolicPoint) -> PLMap:
        if y in self.corruption:
            return self.corruption[y]
        return self.rule.phi_at(y)


@dataclass(frozen=True)
class RigidityReport:
    gamma: float
    beta_gamma: float  # the product exponent beta * gamma at beta = 1
    regression: tuple | None
    repaired_points: tuple
    path_independence_worst: float
    cohomology_worst: float
    anchors_used: int
    anchors_excluded: int
    fiber_lipschitz_max: float

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "beta_gamma": self.beta_gamma,
            "regression": list(self.regression) if self.regression else None,
            "repaired": [
                {"point": pt.to_json(), "change": d} for pt, d in self.repaired_points
            ],
            "path_independence_worst": self.path_independence_worst,
            "cohomology_worst": self.cohomology_worst,
            "anchors_used": self.anchors_used,
            "anchors_excluded": self.anchors_excluded,
            "fiber_lipschitz_max": self.fiber_lipschitz_max,
        }


def _transport(phi_anchor, F, G, a, t, tol, order="su"):
    """Carry a conjugacy value from a to t through the local product point.

    ``order`` "su" takes the stable leg first and the unstable leg second;
    "us" is the other route through the bracket.  The second leg is skipped
    when the product point is t itself.
    """
    m = bracket(a, t) if order == "su" else bracket(t, a)
    val = transport(F, G, a, m, order[0], phi_anchor, tol)
    return val if m == t else transport(F, G, m, t, order[1], val, tol)


def regularize(
    phi: MeasurableConjugacy,
    F: CocycleSpec,
    G: CocycleSpec,
    sample_count: int,
    tol: float,
    mu: MarkovMeasure,
    seed: int,
):
    """Rebuild a conjugacy on a dense sample from screened anchors.

    Anchor candidates are measure samples plus the corrupted points.  G's
    distortion is screened over the first 24 of them (DistortionUnbounded when
    it keeps growing); anchors whose local cohomological residual exceeds
    10*tol are excluded.  Every target value is transported from the nearest
    clean anchor in its cylinder, so corrupted values are repaired.  Returns
    the transported conjugacy as a sample table {point: value} plus a report
    with the moduli measured on it.
    """
    dom_f, _ = dominated_pair(F, G)
    gamma = gamma_budget(dom_f.theta_s, float(F.alpha))

    corrupted = sorted(phi.corruption, key=SymbolicPoint.sort_key)
    anchors_raw = sample_measure(mu, sample_count, seed) + corrupted
    distortion = check_bounded_distortion(G, DISTORTION_HORIZON, anchors_raw[:24])
    if distortion.growth_flagged:
        raise DistortionUnbounded(
            f"iterated slopes keep growing through horizon {DISTORTION_HORIZON} "
            f"(K_est={distortion.K_est:.3g})"
        )
    screened = cohomology_residuals(F, G, phi.phi_at, anchors_raw)
    anchors = [a for a, r in zip(anchors_raw, screened) if r <= 10 * tol]
    excluded = len(anchors_raw) - len(anchors)
    if not anchors:
        raise MissingSample("no anchor survived the residual screening")

    base_targets = list(dict.fromkeys(
        anchors + sample_measure(mu, max(8, sample_count // 2), seed + 1)
    ))
    base_targets += [t.shift(1) for t in base_targets]
    base_targets = list(dict.fromkeys(base_targets))
    extras = corrupted + [t.shift(1) for t in corrupted]
    targets = list(dict.fromkeys(base_targets + extras))

    exponents = agreement_exponents(targets)  # every anchor is a target
    row = {t: k for k, t in enumerate(targets)}
    anchor = {a: a for a in anchors}
    # anchors by descending sort_key, so the first closest anchor wins ties as
    # the largest sort_key would; an exponent of 0 is another cylinder
    cols = [row[a] for a in sorted(anchors, key=SymbolicPoint.sort_key, reverse=True)]
    ks = [k for k, t in enumerate(targets) if t not in anchor]
    closeness = exponents[np.ix_(ks, cols)]
    for i, c in enumerate(np.argmax(closeness, axis=1)):
        if closeness[i, c] < 1:
            raise MissingSample(f"no clean anchor shares the cylinder of {targets[ks[i]]}")
        anchor[targets[ks[i]]] = targets[cols[c]]

    tilde = {}
    for t in targets:
        a = anchor[t]
        if a == t:
            tilde[t] = phi.phi_at(a)
        else:
            tilde[t] = _transport(phi.phi_at(a), F, G, a, t, tol)

    repaired = tuple(
        (t, float(uniform_distance(tilde[t], phi.phi_at(t))))
        for t in corrupted
    )

    # the other route through the bracket, at the first 20 targets carried
    # from another point; an anchor is its own target and carries nothing
    path_worst = 0.0
    for t in [t for t in targets if anchor[t] != t][:20]:
        a = anchor[t]
        alt = _transport(phi.phi_at(a), F, G, a, t, tol, order="us")
        path_worst = max(path_worst, float(uniform_distance(tilde[t], alt)))

    coh_worst = max(
        cohomology_residuals(F, G, tilde.__getitem__, [t for t in targets if t.shift(1) in tilde]),
        default=0.0,
    )

    # regress over the corruption-independent targets so the measured modulus
    # is comparable across runs with and without injected corruption
    base = sorted(base_targets, key=SymbolicPoint.sort_key)
    ks = [row[t] for t in base]
    try:
        regression = holder_regression(
            base, tilde.__getitem__, float(F.space.rho), _exponents=exponents[np.ix_(ks, ks)]
        )
    except InsufficientScales:
        regression = None

    slopes = [m.slopes for m in tilde.values()]
    lip = max(max(float(max(s)), 1.0 / float(min(s))) for s in slopes)
    report = RigidityReport(
        gamma, gamma, regression, repaired, path_worst, coh_worst, len(anchors), excluded, lip
    )
    return tilde, report
