"""Command-line entry point.

Verbs:
  run       integrate a scenario and write snapshot/final CSVs
  converge  mesh-refinement study against the flat-plate reference
  mlsw      run with scenario=MlswCompare (multilayer reference solver)
  analyze   summary statistics of a snapshot CSV

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import logging
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError, EswError
from .scenarios import convergence_study, parse_config, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _cmd_run(args) -> int:
    config = parse_config(args.config, args.set)
    run = run_scenario(config, out_dir=args.out)
    print(f"done: t={run.t:.6g} steps={run.step_count}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    config = parse_config(args.config, args.set)
    try:
        dx_list = [float(v) for v in args.dx]
    except ValueError as exc:
        raise ConfigError(f"--dx: {exc}") from exc
    out = Path(args.out if args.out is not None else config.out_dir)
    convergence_study(config, dx_list, out_dir=out)
    sys.stdout.write((out / "convergence.csv").read_text(encoding="utf-8"))
    return EXIT_OK


def _cmd_mlsw(args) -> int:
    args.set = [*args.set, "scenario=MlswCompare"]
    return _cmd_run(args)


def _cmd_analyze(args) -> int:
    try:
        # genfromtxt warns of a file without lines, then fails obscurely
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            data = np.genfromtxt(args.csv, delimiter=",", names=True)
    except (ValueError, IndexError, UserWarning) as exc:  # ragged, blank
        raise ConfigError(f"{args.csv}: not a snapshot CSV: {exc}") from exc
    if not data.size or "x" not in (data.dtype.names or ()):
        raise ConfigError(f"{args.csv}: not a snapshot CSV with rows")
    print(f"file: {args.csv}")
    print(f"cells: {data['x'].size}")
    for name in data.dtype.names:
        col = data[name]
        print(f"{name}: min={np.min(col):.6g} max={np.max(col):.6g} "
              f"mean={np.mean(col):.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eswsim", description=(
        "Finite-volume solver for shallow-water flow coupled with a viscous "
        "boundary layer."))
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, text, func in (("run", "integrate a scenario", _cmd_run),
                             ("converge", "mesh refinement study",
                              _cmd_converge),
                             ("mlsw", "multilayer reference run", _cmd_mlsw)):
        p = verbs[verb] = sub.add_parser(verb, help=text)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry")
        p.add_argument("--out", help="output directory")
        p.set_defaults(func=func)
    verbs["converge"].add_argument("--dx", nargs="+", required=True,
                                   help="cell sizes to test")

    p_an = sub.add_parser("analyze", help="summarize a snapshot CSV")
    p_an.add_argument("csv", help="snapshot CSV file")
    p_an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (EswError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
