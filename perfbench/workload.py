"""One benchmark workload, driven from this single process as a closed loop.

Run through ``perfbench/run.py``, which sets the thread environment and
starts this script once per measurement.  The script imports cocyclelab from
the checkout's ``src``, builds the workload's inputs from ``--seed``, then
starts one operation at a time, each after the last has returned, in passes
over every operation: at least two, and more while another pass as long as
the last fits in ``--seconds``.  It prints one JSON record as its last line.

An experiment operation is ``cocyclelab.cli.main(["run", "--config", ...,
"--out", ...])`` on a minimal config, which is the user's path: config
parsing, fixtures, checks and report writing.  A sampling operation draws
points with ``sample_measure`` and resamples their pasts and futures.

Operation times are rescaled by the machine speed measured while they ran
(``SpeedProbe``); the unscaled times are recorded too.

With ``--trace 1`` untraced and traced passes alternate: the traced passes
give the per-layer metrics, the untraced ones the rows they must reproduce and
the time against which the tracing overhead is taken.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

HELD_OUT_SEED = 77
MIN_PASSES = 2  # rows are compared between repeats, so every config runs twice
REFERENCE_ITERATIONS = 1500
REFERENCE_NOMINAL_S = 0.004  # the reference loop's time at the speed wall_s is given in
PROBE_INTERVAL_S = 0.2

# (experiment, number of experiment seeds) per experiment workload
EXPERIMENT_WORKLOADS = {
    "transfer": (("theorem-a", 2),),
    # holonomy runs as HolonomyOp, not through the CLI (see its docstring)
    "repair": (("theorem-b", 4),),
    # metric-suite is left out: its lipschitz-chain-bound row fails on about one
    # experiment seed in ten (see README.md, "Left out")
    "algebra": (("closing-lemma", 3), ("distortion", 4)),
}
HOLONOMY_OPS = 2  # on repair
# the holonomy experiment's defaults
HOLONOMY_THETA = 0.4
HOLONOMY_N_MAX = 24
HOLONOMY_AXIOM_TOL = 1e-6
SAMPLING_OPS_PER_MEASURE = 2
SAMPLING_DRAWS = 1500
SAMPLING_DEPTH = 64
# Hoeffding bound on each cylinder frequency; the false-alarm rate is the
# same whatever RNG stream the sampler uses.
FREQUENCY_DELTA = 1e-9
WORKLOADS = tuple(EXPERIMENT_WORKLOADS) + ("sampling",)

# spans each workload must call; zero calls means a wrapper was bypassed
EXPECTED_SPANS = {
    "transfer": (
        "transfer.build_transfer", "transfer.check_periodic_data", "transfer.verify_cohomology",
        "transfer.verify_lemma1", "transfer.holder_regression", "transfer.phi_at",
        "holonomy.stable_holonomy", "holonomy.unstable_holonomy", "cocycles.iterate",
        "cocycles.check_domination", "cocycles.power_domination", "circlemaps.compose.exact",
        "circlemaps.invert", "circlemaps.uniform_distance", "symbolic.homoclinic_points",
        "fixtures",
    ),
    "repair": (
        "rigidity.regularize", "transfer.holder_regression", "holonomy.stable_holonomy",
        "holonomy.unstable_holonomy", "holonomy.verify_holonomy_axioms",
        "holonomy.holonomy_convergence_table", "cocycles.iterate", "cocycles.check_domination",
        "cocycles.check_bounded_distortion", "circlemaps.compose.exact",
        "circlemaps.compose.float", "circlemaps.invert", "circlemaps.uniform_distance",
        "symbolic.sample_measure", "symbolic.homoclinic_points", "fixtures",
    ),
    "algebra": (
        "cocycles.check_bounded_distortion", "circlemaps.compose.exact",
        "circlemaps.compose.float", "circlemaps.invert", "symbolic.sample_measure",
        "symbolic.homoclinic_points", "symbolic.verify_closing_bound", "fixtures",
    ),
    "sampling": (
        "symbolic.sample_measure", "symbolic.resample_past", "symbolic.resample_future",
    ),
}


def reference_loop():
    """Fixed exact-rational arithmetic that uses no cocyclelab code."""
    acc = Fraction(0)
    for i in range(1, REFERENCE_ITERATIONS):
        acc += Fraction(i % 7 + 1, i % 97 + 1)


class SpeedProbe:
    """Measures the machine's speed while operations run.

    On a shared 2-vCPU virtual machine the speed drifted by tens of percent
    within seconds.  The probe times ``reference_loop`` every
    ``PROBE_INTERVAL_S`` from a SIGALRM handler, which runs in this thread
    between bytecodes (also in the middle of an operation), and at every
    operation boundary.  ``clock`` leaves out the time the probe takes, so
    operation times do not include it.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def clock(self):
        return time.perf_counter() - self.spent

    def measure(self):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.spent += took
        self.samples.append(took)
        self._busy = False

    def _on_alarm(self, signum, frame):
        self.measure()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def experiment_seeds(seed: int, count: int):
    return [1000 * seed + i for i in range(count)]


def summary(xs):
    """Median and quartiles of a sample, plus the highest percentile that has
    at least ten samples beyond it (only defined from twenty samples on)."""
    xs = sorted(xs)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    if n >= 20:
        out["p_hi"] = {"percentile": 100.0 * (n - 10) / n, "value": xs[n - 11]}
    return out


# ------------------------------------------------------------------ operations


class ExperimentOp:
    """One ``cocyclelab run`` of a minimal config."""

    def __init__(self, cli, experiment, seed, work_dir):
        self.cli = cli
        self.experiment = experiment
        self.seed = seed
        self.name = f"{experiment}@{seed}"
        self.config = work_dir / "configs" / f"{self.name}.json"
        self.out_dir = work_dir / "out" / self.name
        self.config.parent.mkdir(parents=True, exist_ok=True)
        self.config.write_text(json.dumps({"experiment": experiment, "seed": seed}))

    def parse(self, ExperimentConfig):
        ExperimentConfig.from_json(json.loads(self.config.read_text()))

    def run(self, clock):
        """(seconds, rows bytes, error or None)."""
        for stale in ("report.json", "rows.csv"):
            (self.out_dir / stale).unlink(missing_ok=True)
        log = io.StringIO()
        argv = ["run", "--config", str(self.config), "--out", str(self.out_dir)]
        start = clock()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = self.cli.main(argv)
        except Exception:  # the benchmark must finish and report the failure
            return clock() - start, None, traceback.format_exc(limit=3)
        elapsed = clock() - start
        try:
            report = json.loads((self.out_dir / "report.json").read_text())
            rows = (self.out_dir / "rows.csv").read_bytes()
        except FileNotFoundError:
            tail = " | ".join(log.getvalue().strip().splitlines()[-3:])
            return elapsed, None, f"exit code {code} without a report: {tail}"
        if code != 0 or report["verdict"] != "pass":
            failing = ", ".join(r["name"] for r in report["rows"] if not r["passed"])
            return elapsed, rows, f"exit code {code}, verdict {report['verdict']!r} on {failing}"
        return elapsed, rows, None


class HolonomyOp:
    """The holonomy experiment without its held-out check, called through its layers.

    ``cocyclelab run`` on the holonomy experiment ends with a held-out
    statistical check, ``holonomy-identity-bound-frozen``: the largest of 50
    fresh holonomy ratios must stay below 1.15 times the largest of 50 fitted
    ones.  That check fails on some experiment seeds (one of about 470 tried)
    however correct the layers are, so this operation does the rest of the
    experiment with its parameters and tolerances: the staircase convergence
    table (deep exact products) and the composition and equivariance axioms.
    """

    def __init__(self, fixtures, holonomy, symbolic, np, seed):
        # calls go through the modules so that traced wrappers are seen
        self.fixtures = fixtures
        self.holonomy = holonomy
        self.symbolic = symbolic
        self.np = np
        self.seed = seed
        self.experiment = "holonomy"
        self.name = f"holonomy-layers@{seed}"

    def triples(self, c):
        """Nine homoclinic points of the fixed point 0, chosen as the experiment does."""
        symbolic = self.symbolic
        pts = list(symbolic.homoclinic_points(symbolic.SymbolicPoint.fixed(c.space, 0), 3))
        if len(pts) > 9:
            idx = sorted(self.np.random.default_rng(self.seed + 1).choice(len(pts), size=9, replace=False))
            pts = [pts[i] for i in idx]
        return [tuple(pts[i : i + 3]) for i in range(0, len(pts) - 2, 3)]

    def run(self, clock):
        fixtures, holonomy = self.fixtures, self.holonomy
        start = clock()
        try:
            coc, x, y = fixtures.staircase_cocycle(HOLONOMY_N_MAX + 2, HOLONOMY_THETA)
            table = holonomy.holonomy_convergence_table(coc, x, y, HOLONOMY_N_MAX)
            c = fixtures.pl_dominated_cocycle(
                self.symbolic.SFTSpace.full_shift(2), 1, HOLONOMY_THETA, self.seed
            )
            axioms = holonomy.verify_holonomy_axioms(
                c, self.triples(c), HOLONOMY_AXIOM_TOL, side="s"
            )
        except Exception:
            return clock() - start, None, traceback.format_exc(limit=3)
        elapsed = clock() - start
        residuals = (axioms.max_composition_residual, axioms.max_equivariance_residual)
        rows = repr((table.rows, table.slope, residuals)).encode()
        return elapsed, rows, self.check(coc, table, residuals)

    @staticmethod
    def check(coc, table, residuals):
        target = -HOLONOMY_THETA * math.log(float(coc.space.rho))
        if abs((table.slope or 0.0) - target) > 0.15 * abs(target):
            return f"decay slope {table.slope}, expected {target:.4f} within 15%"
        over = max((inc - bound for _, inc, bound in table.rows), default=0.0)
        if over > 1e-12:
            return f"an increment exceeds its certified bound by {over:.3g}"
        if max(residuals) > HOLONOMY_AXIOM_TOL:
            return f"holonomy axiom residuals {residuals} above {HOLONOMY_AXIOM_TOL}"
        return None


class SamplingOp:
    """Depth-64 draws from a Markov measure plus past and future resampling."""

    def __init__(self, symbolic, np, label, mu, seed):
        # calls go through the module so that traced wrappers are seen
        self.symbolic = symbolic
        self.np = np
        self.mu = mu
        self.seed = seed
        self.experiment = None
        self.name = f"sample-{label}@{seed}"

    def run(self, clock):
        symbolic, mu = self.symbolic, self.mu
        start = clock()
        try:
            pts = symbolic.sample_measure(mu, SAMPLING_DRAWS, self.seed, depth=SAMPLING_DEPTH)
            rng = self.np.random.default_rng(self.seed)
            futures = [symbolic.resample_future(mu, x, rng) for x in pts]
            pasts = [symbolic.resample_past(mu, x, rng) for x in pts]
        except Exception:
            return clock() - start, None, traceback.format_exc(limit=3)
        elapsed = clock() - start
        rows = "\n".join(repr(p) for p in pts + futures + pasts).encode()
        return elapsed, rows, self.check(pts, futures, pasts)

    def check(self, pts, futures, pasts):
        """Cylinder frequencies against pi and Q, and the kept half of each resample."""
        mu = self.mu
        k = mu.space.k
        back = mu.backward_kernel()
        n = len(pts)
        checks = []  # (label, observed count, trials, probability)
        first = [0] * k
        pair = [[0] * k for _ in range(k)]
        fut = [[0] * k for _ in range(k)]
        past = [[0] * k for _ in range(k)]
        for x, f, p in zip(pts, futures, pasts):
            if f.window(-4, 1) != x.window(-4, 1):
                return "resample_future changed the past"
            if p.window(0, 5) != x.window(0, 5):
                return "resample_past changed the future"
            a = x[0]
            first[a] += 1
            pair[a][x[1]] += 1
            fut[a][f[1]] += 1
            past[a][p[-1]] += 1
        for a in range(k):
            checks.append((f"[{a}]", first[a], n, mu.pi[a]))
            for b in range(k):
                checks.append((f"[{a}{b}]", pair[a][b], n, mu.pi[a] * mu.Q[a][b]))
                if first[a]:
                    checks.append((f"future {a}->{b}", fut[a][b], first[a], mu.Q[a][b]))
                    checks.append((f"past {a}->{b}", past[a][b], first[a], back[a][b]))
        for label, hits, trials, prob in checks:
            bound = math.sqrt(math.log(2 * len(checks) / FREQUENCY_DELTA) / (2 * trials))
            if abs(hits / trials - prob) > bound:
                return (f"cylinder {label}: frequency {hits / trials:.4f}, "
                        f"expected {prob:.4f} +- {bound:.4f}")
        return None


def setup(workload, seed, work_dir):
    """Import cocyclelab and build the workload's operations from the seed."""
    import numpy as np

    from cocyclelab import cli, fixtures, holonomy, symbolic
    from cocyclelab.experiments import ExperimentConfig
    from cocyclelab.symbolic import MarkovMeasure, SFTSpace

    if workload == "sampling":
        measures = (
            ("full2-uniform", MarkovMeasure.uniform(SFTSpace.full_shift(2))),
            ("golden-markov",
             MarkovMeasure.from_matrix(SFTSpace.golden_mean(), [[0.35, 0.65], [1.0, 0.0]])),
        )
        seeds = experiment_seeds(seed, SAMPLING_OPS_PER_MEASURE * len(measures))
        ops = [
            SamplingOp(symbolic, np, label, mu, seeds[m * SAMPLING_OPS_PER_MEASURE + i])
            for m, (label, mu) in enumerate(measures)
            for i in range(SAMPLING_OPS_PER_MEASURE)
        ]
    else:
        ops = []
        for experiment, count in EXPERIMENT_WORKLOADS[workload]:
            for s in experiment_seeds(seed, count):
                op = ExperimentOp(cli, experiment, s, work_dir)
                op.parse(ExperimentConfig)
                ops.append(op)
        if workload == "repair":
            ops += [HolonomyOp(fixtures, holonomy, symbolic, np, s)
                    for s in experiment_seeds(seed, HOLONOMY_OPS)]
    return ops


def timed_setup(workload, seed, work_dir):
    """The operations, and the set-up time rescaled like an operation's time."""
    probe = SpeedProbe()
    probe.measure()
    probe.start()
    try:
        start = probe.clock()
        ops = setup(workload, seed, work_dir)
        elapsed = probe.clock() - start
    finally:
        probe.stop()
    probe.measure()
    return ops, elapsed * REFERENCE_NOMINAL_S * len(probe.samples) / sum(probe.samples)


# -------------------------------------------------------------------- driving


def metadata(workload, seed, ops):
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "ops": [{"name": op.name, "seed": op.seed} for op in ops],
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class ClosedLoop:
    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.times = {op.name: [] for op in ops}  # rescaled to the reference speed
        self.raw_times = {op.name: [] for op in ops}
        self.probe = SpeedProbe()
        self.rows = {}
        self.failures = []
        self.attempted = 0
        self.pass_seconds = {False: [], True: []}
        self.layer_passes = []

    def run_pass(self, traced):
        tracer = self.tracer if traced else None
        per_experiment = {}
        total = 0.0
        probe = self.probe
        if tracer:
            tracer.install()
        else:
            probe.start()
        try:
            for op in self.ops:
                if tracer:
                    tracer.begin_op()
                if not probe.samples:
                    probe.measure()
                since = len(probe.samples) - 1  # the latest sample before the op
                elapsed, rows, error = op.run(probe.clock)
                probe.measure()
                window = probe.samples[since:]
                scale = REFERENCE_NOMINAL_S * len(window) / sum(window)
                self.attempted += 1
                total += elapsed * scale
                if op.experiment:
                    per_experiment[op.experiment] = per_experiment.get(op.experiment, 0.0) + elapsed
                if not traced:
                    self.times[op.name].append(elapsed * scale)
                    self.raw_times[op.name].append(elapsed)
                if rows is not None:
                    first = self.rows.setdefault(op.name, rows)
                    if error is None and rows != first:
                        error = "rows differ from an earlier run" + (" (traced)" if traced else "")
                if error:
                    self.failures.append(f"{op.name}: {error}")
        finally:
            probe.stop()
            if tracer:
                tracer.uninstall()
        self.pass_seconds[traced].append(total)
        if tracer:
            self.layer_passes.append((tracer.take(), per_experiment))


def fixed_work_seconds(times):
    """Time of one pass over every operation: the sum of per-operation medians."""
    return sum(statistics.median(ts) for ts in times.values())


def run(workload, seed, seconds, trace, work_dir):
    ops, setup_s = timed_setup(workload, seed, work_dir)

    tracer = None
    if trace:
        from tracer import FIXTURES, Tracer, pass_metrics, span_names

        unexpected = set(span_names()) | {FIXTURES}
        unexpected = unexpected.difference(*EXPECTED_SPANS.values())
        if unexpected:
            raise RuntimeError(f"spans no workload is expected to call: {sorted(unexpected)}")
        tracer = Tracer()
    loop = ClosedLoop(ops, tracer)
    start = last = time.perf_counter()
    passes = 0
    last_pass = 0.0
    # a pass starts only if one more pass of the last one's length fits in
    # --seconds, so that a run ends near its budget however long a pass is
    while passes < MIN_PASSES or last - start + last_pass <= seconds:
        loop.run_pass(traced=bool(trace) and passes % 2 == 1)
        passes += 1
        now = time.perf_counter()
        last_pass, last = now - last, now

    record = {
        "meta": metadata(workload, seed, ops),
        "trace": trace,
        "passes": passes,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": fixed_work_seconds(loop.times),
        "wall_raw_s": fixed_work_seconds(loop.raw_times),
        "reference_s": summary(loop.probe.samples),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:20],
        "op_times": {name: summary(ts) for name, ts in loop.times.items()},
        "op_times_raw": {name: summary(ts) for name, ts in loop.raw_times.items()},
        "rows_sha256": {name: hashlib.sha256(r).hexdigest() for name, r in loop.rows.items()},
        "problems": [],
    }
    if trace:
        untraced = statistics.median(loop.pass_seconds[False])
        overhead = statistics.median(loop.pass_seconds[True]) / untraced - 1.0
        per_pass = [pass_metrics(snap, per_exp, overhead) for snap, per_exp in loop.layer_passes]
        # the lower median is a measured pass's value, so counts stay whole
        record["layers"] = {
            name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]
        }
        record["layer_samples"] = len(per_pass)
        for span in EXPECTED_SPANS[workload]:
            if any(snap[0].get(span, 0) == 0 for snap, _ in loop.layer_passes):
                record["problems"].append(f"{span}: no calls traced; a wrapper was bypassed")
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    args = parser.parse_args(argv)
    work_dir = Path(args.work_dir)
    if args.setup_only:
        _, setup_s = timed_setup(args.workload, args.seed, work_dir)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    record = run(args.workload, args.seed, args.seconds, args.trace, work_dir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
