"""Command-line entry point.

Verbs:
  run       integrate a scenario and write snapshot/final CSVs
  converge  mesh-refinement study against the flat-plate reference
  mlsw      run the multilayer reference solver
  analyze   summary statistics of a snapshot CSV

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .errors import ConfigError, EswError
from .scenarios import (convergence_study, parse_config, run_mlsw_scenario,
                        run_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _cmd_run(args) -> int:
    config = parse_config(args.config, args.set)
    run = run_scenario(config, out_dir=args.out)
    if hasattr(run, "t"):
        print(f"done: t={run.t:.6g} steps={run.step_count}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    config = parse_config(args.config, args.set)
    dx_list = [float(v) for v in args.dx]
    results = convergence_study(config, dx_list, out_dir=args.out)
    print("dx,error,runtime_seconds")
    for dx, err, seconds in results:
        print(f"{dx:.17g},{err:.17g},{seconds:.17g}")
    return EXIT_OK


def _cmd_mlsw(args) -> int:
    config = parse_config(args.config, args.set)
    if config.scenario != "MlswCompare":
        from dataclasses import replace
        config = replace(config, scenario="MlswCompare")
    run_mlsw_scenario(config, out_dir=args.out)
    print("done")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    data = np.genfromtxt(args.csv, delimiter=",", names=True)
    if data.dtype.names is None or "x" not in data.dtype.names:
        raise ConfigError(f"{args.csv}: not a snapshot CSV")
    print(f"file: {args.csv}")
    print(f"cells: {data['x'].size}")
    for name in data.dtype.names:
        col = data[name]
        print(f"{name}: min={np.min(col):.6g} max={np.max(col):.6g} "
              f"mean={np.mean(col):.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eswsim",
        description="Finite-volume solver for shallow-water flow coupled "
                    "with a viscous boundary layer.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry")
        p.add_argument("--out", help="output directory")

    p_run = sub.add_parser("run", help="integrate a scenario")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("converge", help="mesh refinement study")
    common(p_conv)
    p_conv.add_argument("--dx", nargs="+", required=True,
                        help="cell sizes to test")
    p_conv.set_defaults(func=_cmd_converge)

    p_mlsw = sub.add_parser("mlsw", help="multilayer reference run")
    common(p_mlsw)
    p_mlsw.set_defaults(func=_cmd_mlsw)

    p_an = sub.add_parser("analyze", help="summarize a snapshot CSV")
    p_an.add_argument("csv", help="snapshot CSV file")
    p_an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
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
