"""Command-line entry point: wellspin <scenario> --config <path>."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .harness import EXIT_INTERNAL, EXIT_OK, SCENARIOS, load_config, run, validate_config


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wellspin",
        description=(
            "Numerical experiments on discrete multi-well energies and "
            "lattice spin Hamiltonians"
        ),
    )
    parser.add_argument(
        "command",
        choices=list(SCENARIOS) + ["validate"],
        help="scenario to run, or 'validate' to check a config only",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument(
        "--force",
        action="store_true",
        help="run even when the mesh fails the twin-incompatibility check",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output directory (default: $WELLSPIN_OUT/<scenario> or runs/<scenario>)",
    )
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on a usage error, which is the incompatible-mesh code
        return EXIT_OK if err.code == 0 else EXIT_INTERNAL
    # read the config once, since it may be a pipe; validate_config and
    # run() report a failed read as a config problem
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as err:
        config = err
    problems = validate_config(config)
    if args.command == "validate":
        print("\n".join(problems) or "config ok")
        return EXIT_INTERNAL if problems else EXIT_OK
    # run() reports the problems of an invalid config itself
    scenario = None if problems else config["scenario"]
    if scenario not in (None, args.command):
        mismatch = f"config says {scenario!r}, command line says {args.command!r}"
        print(f"config error: scenario: {mismatch}")
        return EXIT_INTERNAL
    out = args.out
    if out is None and "WELLSPIN_OUT" in os.environ:
        out = str(Path(os.environ["WELLSPIN_OUT"]) / args.command)
    return run(config, force=args.force, out_dir=out)


if __name__ == "__main__":
    sys.exit(main())
