"""Command-line entry point: wellspin <scenario> --config <path>."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .harness import EXIT_INTERNAL, EXIT_OK, SCENARIOS, _resolve, _run_resolved


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
    # read and validate the config once: it may be a pipe, and so may its
    # wells_file; an unreadable config is reported as a config problem
    problems, cfg, raw = _resolve(args.config)
    if args.command == "validate":
        print("\n".join(problems) or "config ok")
        return EXIT_INTERNAL if problems else EXIT_OK
    # _run_resolved reports the problems of an invalid config itself
    if cfg is not None and cfg["scenario"] != args.command:
        mismatch = f"config says {cfg['scenario']!r}, command line says {args.command!r}"
        print(f"config error: scenario: {mismatch}")
        return EXIT_INTERNAL
    out = args.out
    if out is None and "WELLSPIN_OUT" in os.environ:
        out = str(Path(os.environ["WELLSPIN_OUT"]) / args.command)
    return _run_resolved(problems, cfg, raw, args.force, out)


if __name__ == "__main__":
    sys.exit(main())
