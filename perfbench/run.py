"""cocyclelab benchmark launcher.

    python3 perfbench/run.py --workload transfer --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout.  The launcher pins BLAS/OpenMP to one thread
in the environment it hands to its children, times set-up in a few short
processes, then runs the workload in one process of its own
(``perfbench/workload.py``).  It prints every metric with its unit and, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metric_units  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # set-up is also timed once in the workload process itself
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(args, env, timeout):
    """Run workload.py and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"workload process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_declared_metrics(trace):
    """The metric names printed must be the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if not trace else "per_layer"]}
    produced = END_TO_END if not trace else layer_metric_units()
    if declared != produced:
        differ = sorted(k for k in declared.keys() | produced.keys()
                        if declared.get(k) != produced.get(k))
        raise BenchmarkError(f"BENCHMARK.json declares {differ} differently")


def main(argv=None):
    parser = argparse.ArgumentParser(description="cocyclelab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cocyclelab" / "__init__.py").is_file():
        print(f"error: no cocyclelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    check_declared_metrics(args.trace)
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setup_times = [
            run_child([*common, "--seconds", "0", "--work-dir", str(work / f"setup{i}"),
                       "--setup-only"], env, 60)["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        record = run_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work / "run")],
            env, CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    setup_times.append(record["setup_s"])
    record["setup_samples"] = setup_times
    problems = record["failures"] + record["problems"]
    attempted, failed = record["attempted"], record["failed"]

    if args.trace:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit in layer_metric_units().items()}
    else:
        values = {
            "wall_s": record["wall_s"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    meta = record["meta"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {record['passes']}  commit {meta['git_commit']}  python {meta['python']}  "
          f"numpy {meta['numpy']}  nproc {meta['nproc']}")
    print("experiment seeds: " + ", ".join(op["name"] for op in meta["ops"]))
    for name, t in record["op_times"].items():
        raw = record["op_times_raw"][name]
        print(f"  op {name}: median {t['median']:.4f} s rescaled, {raw['median']:.4f} s "
              f"unscaled, over n={t['n']}  rows sha256 {record['rows_sha256'].get(name, '-')[:16]}")
    ref = record["reference_s"]
    print(f"reference loop: median {ref['median']:.5f} s over n={ref['n']}; "
          f"unscaled wall time {record['wall_raw_s']:.4f} s")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(f"failed_frac {failed / attempted} (failed {failed} of {attempted} operations)")
    for p in problems:
        print("problem: " + p.replace("\n", " | "))
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
