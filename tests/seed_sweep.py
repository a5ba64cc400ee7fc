"""Run every shipped config at seeds 1-60 and report the gates that fail.

    PYTHONPATH=src python tests/seed_sweep.py

Each configs/*.json runs through harness.run with its seed replaced, into
a temporary directory. Every failing gate is printed with its config and
the seeds it failed at (a run with no gate verdict, such as an internal
error, counts under its exit code). The exit status is 1 if any run exited
non-zero, else 0. The file name has no test_ prefix, so pytest does not
collect it; a sweep takes about 15 s.
"""

import json
import sys
import tempfile
from pathlib import Path

from wellspin.harness import run

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 61)


def sweep(seeds=SEEDS):
    """({(config, gate): failing seeds}, number of runs that failed)."""
    failures, failed_runs = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((ROOT / "configs").glob("*.json")):
            cfg = json.loads(path.read_text(encoding="utf-8"))
            out = Path(tmp) / path.stem
            for seed in seeds:
                code = run({**cfg, "seed": seed}, out_dir=out)
                if code == 0:
                    continue
                failed_runs += 1
                gates = json.loads((out / "summary.json").read_text(encoding="utf-8"))["gates"]
                for gate in [name for name, ok in gates.items() if not ok] or [f"exit {code}"]:
                    failures.setdefault((path.stem, gate), []).append(seed)
    return failures, failed_runs


def main():
    failures, failed_runs = sweep()
    for (config, gate), seeds in sorted(failures.items()):
        print(f"FAIL {config} {gate}: {len(seeds)} of {len(SEEDS)} seeds: {seeds}")
    n_configs = len(list((ROOT / "configs").glob("*.json")))
    print(f"{failed_runs} of {n_configs * len(SEEDS)} runs failed")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
