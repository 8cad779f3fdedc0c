"""Config-driven verification experiments with machine-readable reports.

Each experiment assembles seeded fixtures (or takes named cocycles from the
config), runs the relevant checks and emits one row per check; a report
passes only if every row does.  Rows are deterministic for a fixed config and
seed; wall-clock time lives only in the JSON envelope, never in the rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cocycles, fixtures
from .circlemaps import (
    PLMap,
    compose,
    fb_family,
    invert,
    lipschitz_seminorm_diff,
    uniform_distance,
)
from .cocycles import (
    HORIZON_CAP,
    N_MAX_CAP,
    CocycleSpec,
    check_bounded_distortion,
    check_domination,
    holder_const_cocycle,
)
from .errors import ConfigError, InadmissibleLoop, ParamError, ResourceLimit
from .holonomy import (
    holonomy_convergence_table,
    stable_holonomy,
    verify_holonomy_axioms,
)
from .rigidity import MeasurableConjugacy, regularize
from .symbolic import (
    MarkovMeasure,
    SFTSpace,
    SymbolicPoint,
    homoclinic_points,
    resample_past,
    sample_measure,
    verify_closing_bound,
)
from .transfer import (
    CHECK_PERIOD,
    build_transfer,
    check_periodic_data,
    estimate_holder,
    holder_regression,
    verify_lemma1,
)

@dataclass(frozen=True)
class CheckRow:
    name: str
    residual: float
    bound: float
    passed: bool


@dataclass
class ReportDocument:
    experiment: str
    inputs_digest: str
    rows: list
    verdict: str
    wall_clock_s: float
    tables: dict = field(default_factory=dict)  # name -> list of csv rows
    extra_json: dict = field(default_factory=dict)  # name -> json document

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "inputs_digest": self.inputs_digest,
            "rows": [
                {
                    "name": r.name,
                    "residual": float(r.residual),
                    "bound": float(r.bound),
                    "passed": bool(r.passed),
                }
                for r in self.rows
            ],
            "verdict": self.verdict,
            "wall_clock_s": self.wall_clock_s,
        }

    def write(self, out_dir) -> list:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = [("name", "residual", "bound", "passed")]
        rows += [(r.name, repr(float(r.residual)), repr(float(r.bound)), int(r.passed))
                 for r in self.rows]
        written = []
        for name, doc in {"report": self.to_json(), **self.extra_json}.items():
            path = out / f"{name}.json"
            path.write_text(json.dumps(doc, indent=2))
            written.append(path)
        for name, table in {"rows": rows, **self.tables}.items():
            path = out / f"{name}.csv"
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(table)
            written.append(path)
        return written


TRIPLES_CAP = 10_000  # metric-suite map triples a config may ask for (300 by default)
FAMILY_PAIRS_CAP = 10_000  # metric-suite three-slope pairs a config may ask for (25 by default)

# tolerances that count something, with the cap each may not pass and its name;
# closing-lemma never samples more points than the class it samples from
_COUNT_CAPS = {"horizon": (HORIZON_CAP, "HORIZON_CAP"), "n_max": (N_MAX_CAP, "N_MAX_CAP"),
               "points": None, "triples": (TRIPLES_CAP, "TRIPLES_CAP"),
               "family_pairs": (FAMILY_PAIRS_CAP, "FAMILY_PAIRS_CAP")}


def _seed(seed) -> int:
    """A config's or a generator's seed, which numpy reads as a non-negative int."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed: expected a non-negative integer")
    return seed


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    space: SFTSpace | None = None
    cocycles: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    output_dir: str | None = None

    def tol(self, name: str) -> float:
        """The tolerance ``name``, or the experiment's default for it in RUNNERS."""
        return float(self.tolerances.get(name, RUNNERS[self.experiment][2][name]))

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object")
        exp = doc.get("experiment")
        if exp not in EXPERIMENTS:
            raise ConfigError(f"experiment: expected one of {', '.join(EXPERIMENTS)}, got {exp!r}")
        seed, space = _seed(doc.get("seed", 0)), None
        _, _, reads, names, cycle = RUNNERS[exp]
        if "space" in doc:
            if names is None:
                raise ConfigError(f"space: {exp} reads no space")
            try:
                space = SFTSpace.from_json(doc["space"])
            except (KeyError, TypeError, ValueError) as e:
                raise ConfigError(f"space: {e}") from None
            if not space.is_irreducible():
                raise ConfigError(f"space: {exp} needs P irreducible")
            if not space.admissible_cycle(cycle):
                raise ConfigError(f"space: {exp} builds on the cycle {list(cycle)}, which P forbids")
        cocycles, cdocs, tols = {}, doc.get("cocycles", {}), doc.get("tolerances", {})
        for key, val in (("cocycles", cdocs), ("tolerances", tols)):
            if not isinstance(val, dict):
                raise ConfigError(f"{key}: expected an object")
        for name, cdoc in cdocs.items():
            if name not in (names or ()):
                only = f"only {', '.join(names)}" if names else "no cocycles"
                raise ConfigError(f"cocycles.{name}: {exp} reads {only}")
            if space is None:
                raise ConfigError(f"cocycles.{name}: a space document is required alongside cocycles")
            try:
                cocycles[name] = CocycleSpec.from_json(space, cdoc)
            except (KeyError, TypeError, ValueError, ResourceLimit) as e:
                raise ConfigError(f"cocycles.{name}: {e}") from None
        if cocycles and len(cocycles) < len(names):  # all of them or none
            missing = next(name for name in names if name not in cocycles)
            raise ConfigError(f"cocycles.{missing}: missing ({exp} requires cocycles "
                              f"{' and '.join(names)})")
        for name, val in tols.items():
            if name not in reads:
                raise ConfigError(f"tolerances.{name}: {exp} reads only {', '.join(reads)}")
            number = isinstance(val, (int, float)) and not isinstance(val, bool)
            if not number or not math.isfinite(val) or val <= 0:
                raise ConfigError(f"tolerances.{name}: must be a positive finite number")
        # counts, each positive by the check above; a fraction would be truncated
        for name, cap in _COUNT_CAPS.items():
            val = tols.get(name, 1)
            if val != int(val) or cap and val > cap[0]:
                bound = f" to {cap[0]} ({cap[1]})" if cap else ""
                raise ConfigError(f"tolerances.{name}: must be a whole number from 1{bound}")
        if exp == "holonomy" and space and not cocycles:
            raise ConfigError("space: holonomy reads a space only as cocycle C's")
        output_dir = doc.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigError("output_dir: expected a string")
        return cls(exp, seed, space, cocycles, dict(tols), output_dir)

    def digest(self) -> str:
        payload = {
            "experiment": self.experiment,
            "seed": self.seed,
            "space": self.space.to_json() if self.space else None,
            "cocycles": {k: c.to_json() for k, c in sorted(self.cocycles.items())},
            "tolerances": dict(sorted(self.tolerances.items())),
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _subsample(items, count, seed):
    items = list(items)
    if len(items) <= count:
        return items
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(items), size=count, replace=False)
    return [items[i] for i in sorted(idx)]


# ----------------------------------------------------------------- metric-suite


def run_metric_suite(cfg: ExperimentConfig):
    tol = cfg.tol("equality")
    n_triples = int(cfg.tol("triples"))
    rng = np.random.default_rng(cfg.seed)
    worst_right = worst_left = worst_chain = worst_inv = 0.0
    chain_exact_ok = True
    for _ in range(n_triples):
        exact = bool(rng.integers(0, 2))
        f, g, h = (fixtures.random_plmap(rng, int(rng.integers(2, 6)), exact) for _ in range(3))
        lhs = uniform_distance(compose(g, f), compose(h, f))
        worst_right = max(worst_right, abs(float(lhs - uniform_distance(g, h))))
        left = uniform_distance(compose(f, g), compose(f, h)) - f.max_slope * uniform_distance(g, h)
        worst_left = max(worst_left, float(left))
        product = g.max_slope * f.max_slope
        chain = compose(g, f).max_slope - product
        if exact:
            chain_exact_ok &= chain <= 0
            worst_chain = max(worst_chain, float(chain))
        else:
            # float slopes carry relative rounding: measure against the product
            worst_chain = max(worst_chain, chain / max(1.0, product))
        worst_inv = max(worst_inv, float(uniform_distance(compose(invert(f), f), PLMap.identity())))
    rows = [
        CheckRow("uniform-distance-right-composition-invariance", worst_right, tol, worst_right <= tol),
        CheckRow("uniform-distance-left-composition-bound", worst_left, tol, worst_left <= tol),
        CheckRow("lipschitz-chain-bound", worst_chain, tol, chain_exact_ok and worst_chain <= tol),
        CheckRow("inverse-roundtrip", worst_inv, tol, worst_inv <= tol),
    ]
    pairs = int(cfg.tol("family_pairs"))
    worst_gap = math.inf
    for _ in range(pairs):
        b1 = Fraction(int(rng.integers(1, 4999)), 10000)
        b2 = Fraction(int(rng.integers(1, 4999)), 10000)
        if b1 == b2:
            continue
        worst_gap = min(worst_gap, float(lipschitz_seminorm_diff(fb_family(b1), fb_family(b2))))
    gap_resid = 0.5 - worst_gap
    rows.append(CheckRow("three-slope-family-seminorm-gap", gap_resid, 0.0, gap_resid <= 0.0))
    return rows, {}, {}


# ---------------------------------------------------------------- closing-lemma


def run_closing_lemma(cfg: ExperimentConfig):
    rows = []
    specs = [
        ("full-2-shift", SFTSpace.full_shift(2), 4),
        ("golden-mean", SFTSpace.golden_mean(), 6),
    ]
    n_points = int(cfg.tol("points"))
    raised = 0
    for label, space, core in specs:
        x0 = SymbolicPoint.fixed(space, 0)
        pts = _subsample(homoclinic_points(x0, core), n_points, cfg.seed)
        violations = 0
        checked = 0
        for y in pts:
            for n in range(2, 9):
                try:
                    _, ok = verify_closing_bound(y, n)
                except InadmissibleLoop:
                    raised += 1
                    continue
                checked += 1
                violations += 0 if ok else 1
        rows.append(CheckRow(f"closing-shadowing-bound[{label}]", violations, 0.0, violations == 0))
        rows.append(CheckRow(f"closing-cases-checked[{label}]", -checked, 0.0, checked > 0))
    rows.append(CheckRow("closing-inadmissible-raised", -raised, 0.0, raised > 0))
    return rows, {}, {}


# -------------------------------------------------------------------- holonomy


def run_holonomy(cfg: ExperimentConfig):
    theta = cfg.tol("theta")
    n_max = int(cfg.tol("n_max"))
    coc, x, y = fixtures.staircase_cocycle(n_max + 2, theta)
    table = holonomy_convergence_table(coc, x, y, n_max)
    target = -theta * math.log(float(coc.space.rho))
    slope_resid = abs((table.slope or 0.0) - target)
    over = max((inc - b for _, inc, b in table.rows), default=0.0)
    rows = [
        CheckRow("holonomy-decay-slope", slope_resid, 0.15 * abs(target), slope_resid <= 0.15 * abs(target)),
        CheckRow("holonomy-increments-below-bound", over, 1e-12, over <= 1e-12),
    ]

    axiom_tol = cfg.tol("axioms")
    c = cfg.cocycles.get("C") or fixtures.pl_dominated_cocycle(
        SFTSpace.full_shift(2), 1, theta, cfg.seed
    )
    x0 = SymbolicPoint.fixed(c.space, 0)
    pts = _subsample(homoclinic_points(x0, 3), 9, cfg.seed + 1)
    triples = [tuple(pts[i : i + 3]) for i in range(0, len(pts) - 2, 3)]
    rep = verify_holonomy_axioms(c, triples, axiom_tol, side="s")
    rows.append(CheckRow("holonomy-composition", rep.max_composition_residual, axiom_tol,
                         rep.max_composition_residual <= axiom_tol))
    rows.append(CheckRow("holonomy-equivariance", rep.max_equivariance_residual, axiom_tol,
                         rep.max_equivariance_residual <= axiom_tol))

    mu = MarkovMeasure.uniform(c.space)
    rng = np.random.default_rng(cfg.seed + 2)
    ratios = []
    base = sample_measure(mu, 100, cfg.seed + 3, depth=24)
    for xs in base:
        ys = resample_past(mu, xs, rng, depth=16)
        hol = stable_holonomy(c, xs, ys)
        if hol.distance_alpha_ratio is not None:
            ratios.append(hol.distance_alpha_ratio)
    fit, fresh = ratios[:50], ratios[50:]
    c_frozen = 1.15 * max(fit)
    dom = check_domination(c)
    rho = float(c.space.rho)
    c_theory = (
        holder_const_cocycle(c)
        * rho ** (float(c.alpha) - dom.theta_s)
        / (1 - rho ** (-dom.theta_s))
    )
    worst_fresh = max(fresh) if fresh else 0.0
    rows.append(CheckRow("holonomy-identity-bound-frozen", worst_fresh, c_frozen, worst_fresh <= c_frozen))
    worst_all = max(ratios)
    rows.append(CheckRow("holonomy-identity-bound-certified", worst_all, c_theory, worst_all <= c_theory))
    return rows, {"convergence": [("n", "increment", "bound"), *table.rows]}, {}


# -------------------------------------------------------------------- theorem-a


def _rotation_family(space: SFTSpace, seed: int, psi_window: int):
    F = fixtures.rotation_cocycle(space, 1, seed)
    psi = fixtures.decaying_rotation_rule(space, psi_window)
    G = fixtures.conjugated_pair(F, psi)
    return F, G, psi


def run_theorem_a(cfg: ExperimentConfig):
    tol = cfg.tol("residual")
    space = cfg.space or SFTSpace.full_shift(2)
    if cfg.cocycles:
        F, G, psi = cfg.cocycles["F"], cfg.cocycles["G"], None
    else:
        F, G, psi = _rotation_family(space, cfg.seed, 5)
    x0 = SymbolicPoint.fixed(space, 0)

    T = build_transfer(F, G, x0, 5, tol=1e-9)
    pd = T.periodic_data
    rows = [CheckRow("periodic-data", pd.worst, 0.0, pd.worst == 0.0)]
    coh = T.cohomology  # the build's residuals over the sorted class
    rows.append(CheckRow("cohomological-residual", coh.worst, tol, coh.worst <= tol))
    n_pts = len(coh.rows)
    rows.append(CheckRow("cohomology-sample-count", float(-n_pts), -200.0, n_pts >= 200))

    lem1 = verify_lemma1(T, points=_subsample(T.class_points, 60, cfg.seed + 4), tol=tol)
    rows.append(CheckRow("forward-backward-agreement", lem1.worst, tol, lem1.worst <= tol))

    pts = _subsample(T.class_points, 120, cfg.seed + 5)
    measured = estimate_holder(T, pts)
    if psi is not None:
        truth_rule = fixtures.rotation_conjugacy_rule(psi, x0)
        truth = holder_regression(pts, truth_rule.phi_at, float(space.rho))
        # two infinite exponents are two constant fits: nothing was measured
        finite = math.isfinite(measured[0]) or math.isfinite(truth[0])
        gap = abs(measured[0] - truth[0]) if finite else math.inf
        rows.append(CheckRow("transfer-exponent-gap", gap, 0.1, gap <= 0.1))

    Fbad = fixtures.perturb_one_entry(F, Fraction(1, 100))
    bad = check_periodic_data(Fbad, G, CHECK_PERIOD, tol)
    margin = 0.005 - bad.worst
    rows.append(CheckRow("perturbed-pair-rejected", margin, 0.0, margin <= 0.0))

    tables = {
        "residuals": [("sample", "residual", "bound")]
        + [(repr(pt), repr(r), repr(tol)) for pt, r in coh.rows]
    }
    return rows, tables, {}


# -------------------------------------------------------------------- theorem-b


def run_theorem_b(cfg: ExperimentConfig):
    tol = cfg.tol("residual")
    space = cfg.space or SFTSpace.full_shift(2)
    F, G, psi = _rotation_family(space, cfg.seed, 4)
    x0 = SymbolicPoint.fixed(space, 0)
    rule = fixtures.rotation_conjugacy_rule(psi, x0)
    mu = MarkovMeasure.uniform(space)
    corrupt_pts = sample_measure(mu, 10, cfg.seed + 11, depth=20)
    phi = fixtures.corrupted_conjugacy(rule, corrupt_pts, cfg.seed + 12)

    samples, rep = regularize(phi, F, G, 60, tol, mu=mu, seed=cfg.seed + 13)
    recov = max(float(uniform_distance(samples[pt], rule.phi_at(pt))) for pt in corrupt_pts)
    rows = [
        CheckRow("repair-recovery", recov, tol, recov <= tol),
        CheckRow("path-independence", rep.path_independence_worst, tol,
                 rep.path_independence_worst <= tol),
        CheckRow("regularized-cohomology", rep.cohomology_worst, tol,
                 rep.cohomology_worst <= tol),
    ]
    # a regression regularize could not fit (too few scales) certifies no exponent
    exp_floor = rep.beta_gamma - 0.1
    exponent = rep.regression[0] if rep.regression else -math.inf
    resid = exp_floor - exponent
    rows.append(CheckRow("regularized-exponent", resid, 0.0, resid <= 0.0))

    # corruption invisibility: rerun without any overrides
    _, rep_clean = regularize(MeasurableConjugacy(rule, {}), F, G, 60, tol, mu=mu, seed=cfg.seed + 13)
    e2 = rep_clean.regression[0] if rep_clean.regression else -math.inf
    drift = (math.inf if rep.regression is None or rep_clean.regression is None
             else abs(exponent - e2) if math.isfinite(exponent) or math.isfinite(e2) else 0.0)
    rows.append(CheckRow("corruption-invisibility", drift, 0.02, drift <= 0.02))

    tables = {
        "repaired": [("point", "change")] + [(repr(p), repr(d)) for p, d in rep.repaired_points]
    }
    return rows, tables, {"rigidity": rep.to_json()}


# ------------------------------------------------------------------- distortion


def run_distortion(cfg: ExperimentConfig):
    space = cfg.space or SFTSpace.full_shift(2)
    horizon = int(cfg.tol("horizon"))
    mu = MarkovMeasure.uniform(space)
    pts = sample_measure(mu, 12, cfg.seed, depth=2 * horizon + 4)

    rot = cfg.cocycles.get("C") or fixtures.rotation_cocycle(space, 1, cfg.seed)
    rep = check_bounded_distortion(rot, horizon, pts)
    rows = [
        CheckRow("distortion-isometries-certified", abs(rep.K_est - 1.0), 1e-12,
                 rep.certified and abs(rep.K_est - 1.0) <= 1e-12),
    ]
    tel = fixtures.telescoping_cocycle(space)
    orbit = SymbolicPoint.periodic(space, (0, 1))
    rep2 = check_bounded_distortion(tel, horizon, [orbit, orbit.shift(1)])
    rows.append(CheckRow("distortion-telescoping-bounded", rep2.K_est, 2.0,
                         (not rep2.growth_flagged) and rep2.K_est <= 2.0))
    exp = fixtures.expanding_cocycle(space)
    rep3 = check_bounded_distortion(exp, horizon, pts)
    rows.append(CheckRow("distortion-expansion-flagged", 0.0 if rep3.growth_flagged else 1.0,
                         0.0, rep3.growth_flagged))
    return rows, {}, {}


# ------------------------------------------------------------------ entry point


# name -> (runner, help line, the tolerances it reads with their defaults, the
# cocycles a config may give, all of them or none (None: it reads no space),
# the cycle its periodic base point repeats); a runner returns (rows, tables,
# json documents).  Every experiment that reads a space needs P irreducible:
# holonomy, theorem-b and distortion sample the uniform Markov measure, and
# theorem-a samples the homoclinic class of its base point, dense in X only for
# an irreducible P.
RUNNERS = {
    "metric-suite": (run_metric_suite, "composition/inversion metric algebra on random PL maps",
                     {"equality": 1e-12, "triples": 300, "family_pairs": 25}, None, b""),
    "holonomy": (run_holonomy, "convergence rate, axioms and identity bound of holonomies",
                 {"theta": 0.4, "n_max": 24, "axioms": 1e-6}, ("C",), b"\0"),
    "theorem-a": (run_theorem_a, "periodic-data transfer pipeline with residual checks",
                  {"residual": 1e-6}, ("F", "G"), b"\0"),
    "theorem-b": (run_theorem_b, "measurable-conjugacy repair and regularity regression",
                  {"residual": 1e-6}, (), b"\0"),
    "closing-lemma": (run_closing_lemma, "exact shadowing exponents for orbit closing",
                      {"points": 100}, None, b""),
    "distortion": (run_distortion, "iterated Lipschitz bounds and growth flags", {"horizon": 10},
                   ("C",), b"\0\1"),
}
EXPERIMENTS = tuple(RUNNERS)


def run(cfg: ExperimentConfig) -> ReportDocument:
    start = time.perf_counter()
    rows, tables, extra = RUNNERS[cfg.experiment][0](cfg)
    doc = ReportDocument(
        cfg.experiment,
        cfg.digest(),
        list(rows),
        "pass" if all(r.passed for r in rows) else "fail",
        time.perf_counter() - start,
        tables,
        extra,
    )
    if cfg.output_dir:
        doc.write(cfg.output_dir)
    return doc


# --------------------------------------------------------------------- fixtures


def _parser(convert, accept, expected: str):
    """A generator parameter's parser: ``convert``, then refuse a value ``accept`` does not."""
    def parse(val):
        x = convert(val)
        if not accept(x):
            raise ValueError(f"expected {expected}, got {val}")
        return x
    return parse


_count = _parser(int, lambda n: n >= 0, "a non-negative integer")
_positive = _parser(float, lambda x: math.isfinite(x) and x > 0, "a positive finite number")


def _param(params: dict, name: str, default, parse=_count):
    """Generator parameter ``name`` parsed by ``parse``; a value it refuses is a ParamError."""
    try:
        return parse(params.get(name, default))
    except (ValueError, ZeroDivisionError) as e:
        raise ParamError(f"{name}: {e}") from None


def _full_shift(k):
    """The full k-shift, refused before its k x k matrix is built when that
    matrix, one entry per 2-word, has more than TABLE_ENTRY_CAP entries."""
    k = int(k)
    if k * k > cocycles.TABLE_ENTRY_CAP:
        raise ValueError(f"the full {k}-shift has {k * k} 2-words, more than "
                         f"{cocycles.TABLE_ENTRY_CAP} (TABLE_ENTRY_CAP)")
    return SFTSpace.full_shift(k)


def _rotation_cocycle_entries(space, params, seed):
    c = fixtures.rotation_cocycle(space, _param(params, "window", 1), seed)
    return {"cocycles": {"C": c.to_json()}}


def _pl_dominated_entries(space, params, seed):
    theta = _param(params, "theta", 0.4, _positive)
    c = fixtures.pl_dominated_cocycle(space, _param(params, "window", 1), theta, seed)
    return {"cocycles": {"C": c.to_json()}, "tolerances": {"theta": theta}}


def _conjugated_pair_entries(space, params, seed):
    F, G, _ = _rotation_family(space, seed, _param(params, "psi_window", 3))
    return {"cocycles": {"F": F.to_json(), "G": G.to_json()}}


def _corrupted_conjugacy_entries(space, params, seed):
    return {"tolerances": {"residual": _param(params, "tol", 1e-6, _positive)}}


def _fb_family_doc(params):
    return _param(params, "b", "1/4", lambda b: fb_family(Fraction(b))).to_json()


# kind -> (the experiment its config runs, file name, what it writes after
# experiment/seed/space, the parameters it reads); fb-family writes the PL-map
# document alone, and a config kind also reads space, and k on the full shift
_FIXTURES = {
    "rotation-cocycle": ("distortion", "rotation_cocycle.json", _rotation_cocycle_entries,
                         ("window",)),
    "pl-dominated-cocycle": ("holonomy", "pl_dominated_cocycle.json", _pl_dominated_entries,
                             ("window", "theta")),
    "conjugated-pair": ("theorem-a", "conjugated_pair.json", _conjugated_pair_entries,
                        ("psi_window",)),
    "corrupted-conjugacy": ("theorem-b", "corrupted_conjugacy.json", _corrupted_conjugacy_entries,
                            ("tol",)),
    "fb-family": (None, "fb_family.json", _fb_family_doc, ("b",)),
}
FIXTURE_KINDS = tuple(_FIXTURES)


def generate_fixture(kind: str, params: dict, seed: int, out_dir) -> list:
    """Write the ready-to-run config (fb-family: the PL-map document) of the
    named generator.  A parameter the kind does not read, a negative seed and
    a config that ``ExperimentConfig.from_json`` refuses are refused before
    anything is written."""
    if kind not in _FIXTURES:
        raise ParamError(f"unknown fixture kind {kind!r}; expected one of {FIXTURE_KINDS}")
    experiment, name, entries, reads = _FIXTURES[kind]
    params = dict(params or {})
    space_name = params.get("space", "full-2-shift")
    full = space_name == "full-2-shift"
    if experiment:
        if not full and space_name != "golden-mean":
            raise ParamError(f"unknown space {space_name!r}")
        reads += ("space", "k") if full else ("space",)
    for param in params:
        if param not in reads:
            raise ParamError(f"{param}: {kind} reads only {', '.join(reads)}")
    _seed(seed)
    if experiment:
        space = _param(params, "k", 2, _full_shift) if full else SFTSpace.golden_mean()
        doc = {"experiment": experiment, "seed": seed, "space": space.to_json(),
               **entries(space, params, seed)}
        ExperimentConfig.from_json(doc)  # what run would refuse is not written
    else:
        doc = entries(params)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(json.dumps(doc, indent=2))
    return [path]
