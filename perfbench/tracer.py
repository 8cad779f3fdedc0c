"""Per-layer spans and counters, recorded from outside cocyclelab.

The library modules import each other's functions by name (for example
``from .circlemaps import compose``), so wrapping ``circlemaps.compose`` alone
would miss every caller.  ``Tracer.install`` therefore replaces each traced
function under every name bound to it in any loaded ``cocyclelab`` module, and
patches ``TransferMap.phi_at`` on the class; ``Tracer.uninstall`` puts the
originals back.  Nothing in the library is edited.

A span's self time is its duration minus the time covered by its child spans.
The bookkeeping a wrapper does around the call (counters, keys) is charged to
neither the span nor its parent; it shows up only in ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, function) pairs that get ``<module>.<function>.calls`` / ``.self_s``.
# ``compose`` is reported twice, split into ``compose.exact`` and
# ``compose.float`` by the mode of its arguments.
TRACED_FUNCTIONS = (
    ("transfer", "build_transfer"),
    ("transfer", "check_periodic_data"),
    ("transfer", "verify_cohomology"),
    ("transfer", "verify_lemma1"),
    ("transfer", "holder_regression"),
    ("rigidity", "regularize"),
    ("holonomy", "stable_holonomy"),
    ("holonomy", "unstable_holonomy"),
    ("holonomy", "verify_holonomy_axioms"),
    ("holonomy", "holonomy_convergence_table"),
    ("cocycles", "iterate"),
    ("cocycles", "check_domination"),
    ("cocycles", "power_domination"),
    ("cocycles", "check_bounded_distortion"),
    ("circlemaps", "compose"),
    ("circlemaps", "invert"),
    ("circlemaps", "uniform_distance"),
    ("symbolic", "sample_measure"),
    ("symbolic", "resample_past"),
    ("symbolic", "resample_future"),
    ("symbolic", "homoclinic_points"),
    ("symbolic", "verify_closing_bound"),
)

EXPERIMENT_NAMES = ("holonomy", "theorem-a", "theorem-b", "closing-lemma", "distortion")

COMPOSE_EXACT = "circlemaps.compose.exact"
COMPOSE_FLOAT = "circlemaps.compose.float"
PHI_AT = "transfer.phi_at"
FIXTURES = "fixtures"


def span_names():
    """Every span label a traced pass can report, in output order."""
    names = []
    for mod, fn in TRACED_FUNCTIONS:
        if (mod, fn) == ("circlemaps", "compose"):
            names += [COMPOSE_EXACT, COMPOSE_FLOAT]
        else:
            names.append(f"{mod}.{fn}")
    names.append(PHI_AT)
    return names


def layer_metric_units():
    """Unit of every per-layer metric, in output order."""
    units = {f"experiments.{e}.s": "s" for e in EXPERIMENT_NAMES}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "transfer.holder_regression.pairs": "count",
        "transfer.phi_at.hit_frac": "ratio",
        "holonomy.n_used.mean": "steps",
        "cocycles.iterate.steps": "count",
        "cocycles.iterate.repeat_frac": "ratio",
        "circlemaps.compose.breaks_max": "count",
        "circlemaps.compose.denom_bits_max": "bits",
        "symbolic.sample_measure.draws": "count",
        "symbolic.homoclinic_points.points": "count",
        "fixtures.self_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def _denominator_bits(m) -> int:
    return max(q.denominator.bit_length() for q in m.breaks + m.vals)


def _forward_word(c, x, n):
    """The admissible word the n-step product at x depends on.

    A positive product composes generators at x .. sigma^(n-1) x, which read
    x[-w : n+w]; a negative one inverts the |n|-step product at sigma^n x,
    which reads x[n-w : w].
    """
    w = c.window
    if n > 0:
        return x.window(-w, n + w)
    if n < 0:
        return x.window(n - w, w)
    return ()


class Tracer:
    """Spans and counters for one benchmark process; install around a pass."""

    def __init__(self):
        import cocyclelab  # noqa: F401  (loads every library module)
        from cocyclelab import fixtures, transfer

        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._iterate_depth = 0
        self._iterate_seen = {}
        self._patches = []
        self._transfer_map = transfer.TransferMap
        self._phi_at = transfer.TransferMap.__dict__["phi_at"]
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for mod, fn in TRACED_FUNCTIONS:
            orig = getattr(sys.modules[f"cocyclelab.{mod}"], fn)
            self._wrappers[id(orig)] = (orig, self._wrap(orig, *self._hooks(mod, fn)))
        for name, obj in vars(fixtures).items():
            if (inspect.isfunction(obj) and obj.__module__ == fixtures.__name__
                    and not name.startswith("_")):
                self._wrappers[id(obj)] = (obj, self._wrap(obj, FIXTURES))
        self._phi_at_wrapper = self._wrap(self._phi_at, PHI_AT, pre=self._phi_at_pre)

    # ------------------------------------------------------------ lifecycle

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "cocyclelab" or name.startswith("cocyclelab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._patches.append((self._transfer_map, "phi_at", self._phi_at))
        self._transfer_map.phi_at = self._phi_at_wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def begin_op(self):
        """Start a new experiment run: iterate keys are only compared within one."""
        self._iterate_seen = {}

    def take(self):
        """Return this pass's raw spans and counters and start from zero."""
        snap = (dict(self.calls), dict(self.self_s), dict(self.counts))
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self._iterate_seen = {}
        return snap

    # -------------------------------------------------------------- wrappers

    def _wrap(self, fn, label, pre=None, post=None):
        perf = time.perf_counter
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = perf()
            name = label(args) if callable(label) else label
            if pre is not None:
                pre(args, kwargs)
            out = None
            stack.append(0.0)
            start = perf()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf()
                child = stack.pop()
                calls[name] += 1
                self_s[name] += end - start - child
                if post is not None:
                    post(args, kwargs, out)
                if stack:
                    stack[-1] += perf() - outer

        return wrapper

    def _hooks(self, mod, fn):
        """(label, pre, post) for one traced function."""
        label = f"{mod}.{fn}"
        if fn == "compose":
            return (lambda args: COMPOSE_EXACT if args[0].is_exact and args[1].is_exact
                    else COMPOSE_FLOAT), None, self._compose_post
        if fn == "iterate":
            return label, self._iterate_pre, self._iterate_post
        if fn == "holder_regression":
            return label, self._regression_pre, None
        if fn in ("stable_holonomy", "unstable_holonomy"):
            return label, None, self._holonomy_post
        if fn == "sample_measure":
            return label, self._sample_pre, None
        if fn == "homoclinic_points":
            return label, None, self._homoclinic_post
        return label, None, None

    def _compose_post(self, args, kwargs, out):
        if out is None:
            return
        counts = self.counts
        counts["breaks_max"] = max(counts["breaks_max"], len(out.breaks))
        if out.is_exact:
            counts["denom_bits_max"] = max(counts["denom_bits_max"], _denominator_bits(out))

    def _iterate_pre(self, args, kwargs):
        top = self._iterate_depth == 0
        self._iterate_depth += 1
        if not top:
            return
        c, x, n = args[0], args[1], args[2] if len(args) > 2 else kwargs["n"]
        counts = self.counts
        counts["iterate_top"] += 1
        counts["iterate_steps"] += abs(n)
        # hold the cocycle so its id cannot be reused within the run
        _, seen = self._iterate_seen.setdefault(id(c), (c, set()))
        key = (abs(n), _forward_word(c, x, n))
        if key in seen:
            counts["iterate_repeats"] += 1
        else:
            seen.add(key)

    def _iterate_post(self, args, kwargs, out):
        self._iterate_depth -= 1

    def _regression_pre(self, args, kwargs):
        n = len(args[0] if args else kwargs["points"])
        self.counts["regression_pairs"] += n * (n - 1) // 2

    def _holonomy_post(self, args, kwargs, out):
        if out is not None:
            self.counts["n_used_sum"] += out.n_used
            self.counts["n_used_count"] += 1

    def _sample_pre(self, args, kwargs):
        self.counts["draws"] += args[1] if len(args) > 1 else kwargs["count"]

    def _homoclinic_post(self, args, kwargs, out):
        if out is not None:
            self.counts["homoclinic_points"] += len(out)

    def _phi_at_pre(self, args, kwargs):
        T, y = args[0], args[1] if len(args) > 1 else kwargs["y"]
        if y in T.samples or y in T._cache:
            self.counts["phi_at_hits"] += 1


def pass_metrics(snapshot, experiment_seconds, overhead_frac):
    """Per-layer metric values of one traced pass."""
    calls, self_s, counts = snapshot
    out = {f"experiments.{e}.s": experiment_seconds.get(e, 0.0) for e in EXPERIMENT_NAMES}
    for name in span_names():
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    phi_calls = calls.get(PHI_AT, 0)
    top = counts.get("iterate_top", 0)
    hol = counts.get("n_used_count", 0)
    out.update({
        "transfer.holder_regression.pairs": counts.get("regression_pairs", 0),
        "transfer.phi_at.hit_frac": counts.get("phi_at_hits", 0) / phi_calls if phi_calls else 0.0,
        "holonomy.n_used.mean": counts.get("n_used_sum", 0) / hol if hol else 0.0,
        "cocycles.iterate.steps": counts.get("iterate_steps", 0),
        "cocycles.iterate.repeat_frac": counts.get("iterate_repeats", 0) / top if top else 0.0,
        "circlemaps.compose.breaks_max": counts.get("breaks_max", 0),
        "circlemaps.compose.denom_bits_max": counts.get("denom_bits_max", 0),
        "symbolic.sample_measure.draws": counts.get("draws", 0),
        "symbolic.homoclinic_points.points": counts.get("homoclinic_points", 0),
        "fixtures.self_s": self_s.get(FIXTURES, 0.0),
        "trace.overhead_frac": overhead_frac,
    })
    return out
