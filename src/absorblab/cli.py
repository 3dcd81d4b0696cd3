"""Command-line entry point: `absorblab run|sweep <config-path>`.

Exit codes: 0 on success (and after `--help`), 1 on command-line usage
errors, configuration errors, a config file that cannot be read or outputs
that cannot be written, 2 on numerical failure of a single run (a solver
failure or an arithmetic error such as overflow).  Sweeps isolate
per-point failures inside the records and exit 0 once the grid has been
traversed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .experiments import ConfigError, parse_config, run_experiment, sweep, write_records


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absorblab",
        description="Run declarative experiments on the diffusion-absorption system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute one experiment config"),
        ("sweep", "execute a config once per sweep.* grid point"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to the experiment config file")
        cmd.add_argument("--out", default="./out", help="output directory (default ./out)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--format", choices=("csv", "json"), default="csv", dest="fmt",
            help="record serialization format",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        spec = parse_config(text)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        if args.command == "run":
            records = [run_experiment(spec, out_dir=args.out)]
        else:
            records = sweep(spec, out_dir=args.out)
        path = write_records(records, args.out, fmt=args.fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    for record in records:
        status = "FAILED" if record.failed else "ok"
        print(f"  {record.runid}: {status}")
    if args.command == "run" and records[0].failed:
        print(f"numerical failure: {records[0].error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
