"""Command-line experiment runner.

Exit codes: 0 when every check passes, 1 when a check fails, 2 for
configuration problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CocycleLabError, ConfigError, ParamError
from .experiments import (
    FIXTURE_KINDS,
    RUNNERS,
    ExperimentConfig,
    generate_fixture,
    run,
)

# bytes of a config file; `gen` writes a table at TABLE_ENTRY_CAP in 4 MB (rotations)
# to 11 MB (four-breakpoint PL maps)
CONFIG_BYTES_CAP = 16 * 2**20


def _name_values(items, field="", parse=str) -> dict:
    """{NAME: parse(VALUE)} for repeated NAME=VALUE options; a message names
    ``field``, the config field they set, when there is one."""
    out = {}
    for item in items or ():
        name, eq, val = item.partition("=")
        if not eq:
            raise ConfigError(f"{field and field + ': '}expected NAME=VALUE, got {item!r}")
        try:
            out[name] = parse(val)
        except ValueError:
            raise ConfigError(f"{field}.{name}: not a number: {val!r}") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cocyclelab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to the experiment JSON")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory for reports")
    p_run.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override, repeatable")

    p_gen = sub.add_parser("gen", help="write fixture/config files")
    p_gen.add_argument("kind", choices=FIXTURE_KINDS)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=".", help="output directory")
    p_gen.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="generator parameter, repeatable")

    sub.add_parser("list-experiments", help="list available experiments")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-experiments":
            for name, (_, help_line, *_) in RUNNERS.items():
                print(f"{name:15s} {help_line}")
            return 0
        if args.command == "gen":
            params = _name_values(args.param)
            for path in generate_fixture(args.kind, params, args.seed, args.out):
                print(path)
            return 0
        # run
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise ConfigError(f"config: no such file {cfg_path}")
        with cfg_path.open("rb") as fh:
            text = fh.read(CONFIG_BYTES_CAP + 1)
        if len(text) > CONFIG_BYTES_CAP:
            raise ConfigError(
                f"config: {cfg_path} exceeds {CONFIG_BYTES_CAP} bytes (CONFIG_BYTES_CAP)"
            )
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"config: invalid JSON ({e})") from None
        if isinstance(doc, dict):  # overrides are checked by from_json like the file's fields
            if args.seed is not None:
                doc["seed"] = args.seed
            if args.out is not None:
                doc["output_dir"] = args.out
            tols = doc.get("tolerances", {})
            if args.tol and isinstance(tols, dict):
                doc["tolerances"] = {**tols, **_name_values(args.tol, "tolerances", float)}
        doc = run(ExperimentConfig.from_json(doc))
        for row in doc.rows:
            status = "pass" if row.passed else "FAIL"
            print(f"[{status}] {row.name}: residual={row.residual:.3e} bound={row.bound:.3e}")
        print(f"verdict: {doc.verdict} ({doc.wall_clock_s:.2f}s) digest={doc.inputs_digest[:12]}")
        return 0 if doc.passed else 1
    except (ConfigError, ParamError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CocycleLabError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
