"""Which statements of ``src/cocyclelab`` the entry points execute.

Runs every entry point under ``sys.settrace`` and prints each ``src/``
statement that none of them executes, as ``file:line: source``, then a count
per module.  The entry points are:

- ``cocyclelab run`` on each of the six experiments at seeds 0 and 77;
- ``cocyclelab gen`` on every fixture kind, and ``run`` on each config it
  writes;
- the five demos under ``demos/``;
- the benchmark's holonomy operation and one sampling operation per measure
  (``perfbench/workload.py``).

A statement is a line that carries bytecode; a function's ``def`` line
counts as executed when the function is called.  The tracer is installed
before ``cocyclelab`` is imported, so module-level lines count too.  Not part
of the tier-1 suite; run it from the repository root:

    python3 tests/reach.py

It takes about 10 s on a 2-core Linux machine with Python 3.11.7; the same
entry points take about 2.2 s in one process untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cocyclelab"
SEEDS = (0, 77)


def statements(path: Path) -> set[int]:
    """Lines of ``path`` that carry bytecode in any of its code objects."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: none
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
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
    for kind in FIXTURE_KINDS:
        out = work / f"gen-{kind}"
        codes[out.name] = cli.main(["gen", kind, "--out", str(out)])
        for path in sorted(out.glob("*.json")):
            if "experiment" in json.loads(path.read_text()):
                codes[f"{out.name}/{path.stem}"] = cli.main(
                    ["run", "--config", str(path), "--out", str(out / "report")]
                )
    for demo in sorted((ROOT / "demos").glob("*.py")):
        argv, sys.argv = sys.argv, [str(demo)]
        try:
            runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.argv = argv
        codes[demo.stem] = 0
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


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            codes = {}
            hits = traced(lambda: codes.update(entry_points(Path(tmp))))
    missed_total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        missed = sorted(statements(path) - {n for f, n in hits if f == str(path)})
        for n in missed:
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
        missed_total += len(missed)
        print(f"# {path.name}: {len(missed)} statements not executed", file=sys.stderr)
    print(f"# {missed_total} statements not executed; {time.perf_counter() - start:.0f} s",
          file=sys.stderr)
    failed = {name: code for name, code in codes.items() if code not in (0, 1)}
    if failed:
        print(f"# entry points that did not finish: {failed}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
