"""Which statements of ``src/cocyclelab`` the entry points execute, and
whether each one they leave unexecuted may stay so.

Runs every entry point under ``sys.settrace`` and sorts each ``src/``
statement that none of them executes into one of two kinds:

- a *refusal*: a ``raise`` statement, an ``except`` clause, or a statement
  of an ``if`` branch that ends in a ``raise`` (the lines that build the
  refusal's message);
- a *body*: every other statement.

A refusal may stay unexecuted.  A body must be on ``ALLOWED``, whose entries
each name a snippet of one module and say in one line why the code stays
unreached; an entry covers each run of consecutive unexecuted statements
that its snippet's lines touch (a snippet may take in an executed line next
to an unexecuted one, to occur once).  The script prints every unexecuted statement,
tagged ``refusal``, ``allowed`` or ``UNLISTED``, then each stale entry (one
whose snippet does not occur exactly once, or whose lines now all run, or
whose runs hold no body), and a count of refusals and bodies per module.  It exits
1 when a body is unlisted, an entry is stale or an entry point fails.

The entry points are:

- ``cocyclelab run`` on each of the six experiments at seeds 0 and 77, and
  closing-lemma with ``--seed`` and ``--tol`` overrides;
- ``cocyclelab gen`` on every fixture kind, with its defaults and with
  ``--param`` values (the config kinds on ``space=golden-mean``), and
  ``run`` on each config it writes;
- ``python -m cocyclelab.cli list-experiments``;
- the five demos under ``demos/``;
- the benchmark's holonomy operation and one sampling operation per measure
  (``perfbench/workload.py``).

A statement is a line that carries bytecode; a function's ``def`` line
counts as executed when the function is called.  The tracer is installed
before ``cocyclelab`` is imported, so module-level lines count too.
``tests/test_reach.py`` checks in the tier-1 suite that every snippet on
``ALLOWED`` occurs exactly once in its module and that every entry gives a
reason, so a change to an allowlisted line must update its entry in the same
change.  This script is not part of tier-1; run it from the repository root:

    python3 tests/reach.py

It takes about 12 s on a 2-core Linux machine with Python 3.11.7.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cocyclelab"
SEEDS = (0, 77)


class Allowed(NamedTuple):
    path: str  # module file under src/cocyclelab
    snippet: str  # occurs exactly once in the module and touches an unexecuted statement
    reason: str


ALLOWED = (
    # caches and memos emptied only at their cap
    Allowed("cocycles.py", "memo.clear()\n        memo[key] = h",
            "iterate's orbit memo empties at ORBIT_MEMO_CAP products"),
    Allowed("holonomy.py", "memo.clear()",
            "the holonomy memo empties at ORBIT_MEMO_CAP results"),
    Allowed("transfer.py", "self._cache.clear()\n        self._cache[y] = phi",
            "phi_at's cache empties at PHI_CACHE_CAP; perfbench/tracer.py reads _cache "
            "until ROADMAP 3(f)"),
    # period-n0 and PL bodies that ROADMAP items 1 and 2 reach
    Allowed("transfer.py", "left_ref = x0.shift(n0 - 1)",
            "verify_lemma1's n0 > 1 branch: every entry point builds on a fixed point "
            "(ROADMAP 2)"),
    Allowed("cocycles.py", "products = [orbit_product(_word_generators(c, word, n0))",
            "_margins' time-n0 fold: every n0 > 1 call is on an exact-rotation table "
            "(ROADMAP 1 and 2)"),
    Allowed("cocycles.py", "return (invert(table[word[j : j + span]])",
            "_word_generators' backward branch: backward PL products fold only at a "
            "period-n0 base (ROADMAP 1 and 2)"),
    Allowed("fixtures.py", "inverses = {w: invert(m) for w, m in psi.table.items()}",
            "conjugated_pair's compose branch: every F and psi an entry point gives are "
            "rotations (ROADMAP 1)"),
    Allowed("transfer.py", "r = float(uniform_distance(vals[p], vals[q]))",
            "regression distances between PL or float values: every conjugacy an entry "
            "point regresses is rotation-valued (ROADMAP 1)"),
    Allowed("transfer.py", "out.append(float(uniform_distance(f, compose(compose(p1, g), invert(p0)))))",
            "residual rows with a PL or float map: every conjugacy an entry point checks is "
            "rotation-valued (ROADMAP 1)"),
    Allowed("transfer.py",
            "rs = [float(uniform_distance(iterate(f, pt, n), iterate(g, pt, n))) for n in ns]",
            "check_periodic_data's fold branch: every pair an entry point checks is two "
            "exact-rotation tables (ROADMAP 1)"),
    Allowed("holonomy.py", "return [limit(i) for i in range(len(ys))]",
            "conjugacy_quotient on tables that are not both rotation-summable: every pair "
            "an entry point builds on is two exact-rotation tables (ROADMAP 1)"),
    Allowed("holonomy.py", "return _limit((F, ys[i], G, ys[i])",
            "conjugacy_quotient's per-point _limit, which only the loop above and a point "
            "past HOLONOMY_ITER_CAP call"),
    Allowed("transfer.py", "return transport(*args, y, side, tol=self.tol, n0=self.period)",
            "phi_at's holonomy transport: every pair an entry point builds on has equal "
            "exact return maps (ROADMAP 1)"),
    # float-mode edges
    Allowed("circlemaps.py", "vals = tuple(v - 1 for v in vals)",
            "a float lift value that rounds up to 1; no exact map reaches it"),
    Allowed("circlemaps.py", "out_b.pop()",
            "a float wrap segment shorter than SEGMENT_EPS"),
    Allowed("circlemaps.py", 'return {"breakpoints": list(self.breaks), "values": list(self.vals)}',
            "to_json of a float map: every written table is exact"),
    Allowed("circlemaps.py", "if type(e) not in (int, float):",
            "a float coordinate read from a config: every table an entry point reads is exact"),
    # API edges
    Allowed("circlemaps.py", "angle = Fraction(angle)",
            "rotation of an int angle; callers pass Fractions or floats"),
    Allowed("circlemaps.py", "return f.max_slope",
            "holder_constant at beta = 1, the exact maximal slope"),
    Allowed("cocycles.py", "break\n        ends = [",
            "table_words stops counting past TABLE_ENTRY_CAP, then refuses the table"),
    Allowed("cocycles.py", "len(words) != len(self.table) or not all(w in self.table for w in words)",
            "a table whose keys come in another order than the enumeration's"),
    Allowed("cocycles.py", "return min(self.theta_s, self.theta_u)",
            "DominationReport.theta, which NotDominated's message reads"),
    Allowed("experiments.py", "if b1 == b2:\n            continue",
            "metric-suite's repeated three-slope draw, 1 in 4998 per pair"),
    Allowed("symbolic.py", 'yield b""',
            "words(0); the shortest word an entry point enumerates has length 1"),
    Allowed("cocycles.py", "return den, []",
            "quotient_numerators over no points: conjugacy_quotient whose first point is "
            "past HOLONOMY_ITER_CAP"),
    Allowed("holonomy.py", "limit(ok)  # raises the cap's NoConvergence",
            "a class point past HOLONOMY_ITER_CAP: entry points' onsets are a few steps"),
    Allowed("symbolic.py", "return [], None",
            "agreement data of an empty point list"),
    Allowed("transfer.py", "return (math.inf, 0.0)",
            "a regression over a conjugacy constant on its samples"),
)


def statements(path: Path) -> set[int]:
    """Lines of ``path`` that carry bytecode in any of its code objects."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: none
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def refusals(path: Path) -> set[int]:
    """Lines of ``path`` inside a ``raise``, an ``except`` clause, or an
    ``if`` branch that ends in a ``raise``."""
    lines = set()

    def span(node):
        lines.update(range(node.lineno, node.end_lineno + 1))

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            span(node)
        elif isinstance(node, ast.If):
            for block in (node.body, node.orelse):
                if block and isinstance(block[-1], ast.Raise):
                    for stmt in block:
                        span(stmt)
    return lines


def traced(run):
    """Call ``run()`` under a tracer; return the (file, line) pairs executed in SRC."""
    prefix = str(SRC)
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.add((filename, frame.f_code.co_firstlineno))
        return local

    sys.settrace(global_)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


# gen runs with --param values: kind -> NAME=VALUE pairs
GEN_PARAMS = {
    "rotation-cocycle": ("space=golden-mean", "window=2"),
    "pl-dominated-cocycle": ("space=golden-mean", "theta=0.5"),
    "conjugated-pair": ("space=golden-mean", "psi_window=2"),
    "corrupted-conjugacy": ("space=golden-mean", "tol=1e-5"),
    "fb-family": ("b=1/3",),
}


def entry_points(work: Path):
    """Run every entry point once; output goes to ``work`` and to a buffer."""
    from cocyclelab import cli
    from cocyclelab.experiments import EXPERIMENTS, FIXTURE_KINDS

    codes = {}
    for experiment in EXPERIMENTS:
        for seed in SEEDS:
            cfg = work / f"{experiment}-{seed}.json"
            cfg.write_text(json.dumps({"experiment": experiment, "seed": seed}))
            codes[cfg.stem] = cli.main(["run", "--config", str(cfg), "--out", str(work / cfg.stem)])
    cfg = work / "closing-lemma-0.json"
    codes["closing-lemma-overrides"] = cli.main(
        ["run", "--config", str(cfg), "--seed", "5", "--tol", "points=1000"])
    for kind in FIXTURE_KINDS:
        for out, params in ((work / f"gen-{kind}", ()), (work / f"gen-{kind}-params", GEN_PARAMS[kind])):
            codes[out.name] = cli.main(
                ["gen", kind, "--out", str(out), *(f"--param={p}" for p in params)])
            for path in sorted(out.glob("*.json")):
                if "experiment" in json.loads(path.read_text()):
                    codes[f"{out.name}/{path.stem}"] = cli.main(
                        ["run", "--config", str(path), "--out", str(out / "report")]
                    )
    argv = sys.argv
    try:
        sys.argv = ["cocyclelab", "list-experiments"]
        with warnings.catch_warnings():  # the module is imported already
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("cocyclelab.cli", run_name="__main__")
    except SystemExit as e:
        codes["list-experiments"] = e.code
    try:
        for demo in sorted((ROOT / "demos").glob("*.py")):
            sys.argv = [str(demo)]
            runpy.run_path(str(demo), run_name="__main__")
            codes[demo.stem] = 0
    finally:
        sys.argv = argv
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import workload
    from cocyclelab import fixtures, holonomy, symbolic

    ops = workload.setup("sampling", 0, work)[:: workload.SAMPLING_OPS_PER_MEASURE]
    ops.append(workload.HolonomyOp(fixtures, holonomy, symbolic, np, 0))
    for op in ops:
        _, _, error = op.run(time.perf_counter)
        codes[op.name] = 0 if error is None else error
    return codes


def audit(hits) -> tuple[list, list, dict]:
    """(report lines, stale entries, {module: (refusals, bodies, unlisted bodies)})
    for the executed lines ``hits``."""
    report, stale, counts = [], [], {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        stmts = sorted(statements(path))
        ran = {n for f, n in hits if f == str(path)}
        refused = refusals(path)
        # the run of consecutive unexecuted statements each unexecuted line is in
        run_of, run = {}, 0
        for n in stmts:
            if n in ran:
                run += 1
            else:
                run_of[n] = run
        covered = set()
        for entry in (e for e in ALLOWED if e.path == path.name):
            found = text.count(entry.snippet)
            if found != 1:
                stale.append(f"{entry.path}: {entry.snippet!r} occurs {found} times")
                continue
            line = text[: text.find(entry.snippet)].count("\n") + 1
            runs = {run_of[n] for n in range(line, line + entry.snippet.count("\n") + 1)
                    if n in run_of}
            lines = {n for n, r in run_of.items() if r in runs}
            if not runs:
                stale.append(f"{entry.path}:{line}: {entry.snippet!r} runs now")
            elif lines <= refused:
                stale.append(f"{entry.path}:{line}: {entry.snippet!r} covers no body")
            covered |= lines
        missed = sorted(run_of)
        for n in missed:
            kind = "refusal" if n in refused else "allowed" if n in covered else "UNLISTED"
            report.append(f"{path.relative_to(ROOT)}:{n}: {kind:8s} {source[n - 1].strip()}")
        bodies = [n for n in missed if n not in refused]
        counts[path.name] = (len(missed) - len(bodies), len(bodies),
                             sum(n not in covered for n in bodies))
    return report, stale, counts


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            codes = {}
            hits = traced(lambda: codes.update(entry_points(Path(tmp))))
    report, stale, counts = audit(hits)
    print("\n".join(report))
    for line in stale:
        print(f"stale allowlist entry: {line}")
    for name, (refused, bodies, unlisted) in counts.items():
        print(f"# {name}: {refused} refusals, {bodies} bodies ({unlisted} unlisted)",
              file=sys.stderr)
    refused, bodies, unlisted = (sum(c[i] for c in counts.values()) for i in range(3))
    print(f"# not executed: {refused} refusals, {bodies} bodies ({bodies - unlisted} "
          f"allowlisted, {unlisted} unlisted); {len(stale)} stale allowlist entries; "
          f"{time.perf_counter() - start:.0f} s", file=sys.stderr)
    failed = {name: code for name, code in codes.items() if code not in (0, 1)}
    if failed:
        print(f"# entry points that did not finish: {failed}", file=sys.stderr)
    return 1 if failed or stale or unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
